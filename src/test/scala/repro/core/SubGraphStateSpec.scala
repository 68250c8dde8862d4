package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, Grid2D}

class SubGraphStateSpec extends SparkSpec {

  private val noQuota = Array.fill(4)(Long.MaxValue) // for up to 4 partitions

  /** Phase 1 with the selection as (vertex, partition) pairs; returns the
    * new memberships as pairs.
    */
  private def oneHop(st: SubGraphState, sel: Seq[(Long, Int)], sizes: Array[Long],
                     delta: Array[Long], quota: Array[Long]): Seq[(Long, Int)] = {
    val log = new SubGraphState.Log
    st.allocateOneHop(sel.map(_._1).toArray, sel.map(_._2).toArray, sizes, delta, quota, log)
    log.joined.result().toSeq.zip(log.joinedPart.result())
  }

  /** Phase 3 with a fresh log. */
  private def twoHop(st: SubGraphState, bp: Array[Int], sizes: Array[Long],
                     delta: Array[Long], quota: Array[Long]): SubGraphState.Log = {
    val log = new SubGraphState.Log
    st.allocateTwoHop(bp, sizes, delta, quota, log)
    log
  }

  /** Phase 2's sync of the given (vertex, partition) memberships. */
  private def sync(st: SubGraphState, msgs: (Long, Int)*): Array[Int] =
    st.applySync(msgs.map(_._1).toArray, msgs.map(_._2).toArray)

  test("build produces a consistent CSR") {
    val st = SubGraphState.build(0, 4, TestGraphs.k4)
    assert(st.graph.numEdges == 6)
    assert(st.graph.numVertices == 4)
    assert(st.graph.adjEdge.length == 12) // every edge under both endpoints
    // every vertex of K4 has degree 3
    (0 until 4).foreach { lv =>
      assert(st.graph.adjOff(lv + 1) - st.graph.adjOff(lv) == 3)
      assert(st.unallocCount(lv) == 3)
    }
  }

  test("build of an empty cell is valid") {
    val st = SubGraphState.build(3, 4, Array.empty)
    assert(st.graph.numEdges == 0 && st.graph.numVertices == 0)
    assert(st.sampleUnallocated(5, 1L).isEmpty)
    assert(st.assignments.isEmpty)
  }

  test("one-hop allocation takes every unallocated incident edge") {
    val st = SubGraphState.build(0, 4, TestGraphs.star(5))
    val sel = Seq((0L, 2)) // select the hub for partition 2
    val delta = new Array[Long](4)
    val msgs = oneHop(st, sel, new Array[Long](4), delta, noQuota)
    assert(st.alloc.forall(_ == 2))
    assert(delta(2) == 5)
    // membership messages: hub + all 5 leaves got partition 2
    assert(msgs.toSet == (0L to 5L).map(x => (x, 2)).toSet)
    assert((0 until st.graph.numVertices).forall(st.unallocCount(_) == 0))
  }

  test("one-hop allocation skips vertices not present locally") {
    val st = SubGraphState.build(0, 4, TestGraphs.k4)
    val delta = new Array[Long](2)
    val msgs = oneHop(st, Seq((99L, 0)), new Array[Long](2), delta, noQuota)
    assert(msgs.isEmpty && st.alloc.forall(_ == -1))
  }

  test("conflicting one-hop claims resolve to the less-loaded partition") {
    // edge (0,1); both endpoints selected by different partitions
    val st = SubGraphState.build(0, 4, Array((0L, 1L)))
    val sizes = Array(10L, 3L) // partition 1 is lighter
    val delta = new Array[Long](2)
    oneHop(st, Seq((0L, 0), (1L, 1)), sizes, delta, noQuota)
    assert(st.alloc(0) == 1, "lighter partition must win the conflict")
  }

  test("conflict ties break to the smaller partition id") {
    val st = SubGraphState.build(0, 4, Array((0L, 1L)))
    val delta = new Array[Long](2)
    oneHop(st, Seq((0L, 1), (1L, 0)), Array(5L, 5L), delta, noQuota)
    assert(st.alloc(0) == 0)
  }

  test("a vertex selected twice claims for its first partition in sorted order") {
    // vertex 1 is selected by partitions 0 and 1; vertex 0's edge to it is a
    // conflict against partition 0 (load tie, smaller id wins), not 1
    val st = SubGraphState.build(0, 4, Array((0L, 1L)))
    oneHop(st, Seq((0L, 2), (1L, 0), (1L, 1)), Array(5L, 0L, 5L), new Array[Long](3), noQuota)
    assert(st.alloc(0) == 0)
  }

  test("applySync adds memberships only for local vertices and dedupes") {
    val st = SubGraphState.build(0, 4, TestGraphs.k4)
    val bp = sync(st, (0L, 1), (0L, 1), (2L, 3), (42L, 0))
    assert(bp.length == 2) // (0,1) deduped; 42 not local
    assert(st.memberships.contains(st.graph.localId(0L), 1))
    assert(st.memberships.contains(st.graph.localId(2L), 3))
  }

  test("applySync over every cell's memberships equals the sync to the replica cells") {
    // The paper sends a membership of v only to v's row ∪ column cells;
    // DistributedNE hands every cell the whole list, in cell order. A cell
    // skips the vertices it does not hold, and every vertex it holds has it
    // among its replica cells (Grid2DSpec's KEY INVARIANT), so both agree.
    val p = 16
    val grid = Grid2D.forPartitions(p)
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val byCell = edges.groupBy(e => grid.cellOf(e._1, e._2))
    val cells = (0 until grid.numCells).map(c => SubGraphState.build(c, p, byCell.getOrElse(c, Array.empty)))
    // every 40th vertex, the first few also selected by a second partition
    val verts = edges.flatMap(e => Array(e._1, e._2)).distinct.sorted
    val picked = verts.indices.by(40).map(verts)
    val sel = (picked.zipWithIndex.map { case (v, i) => (v, i % p) } ++
      picked.take(5).map(v => (v, 3))).distinct.sorted
    val free = Array.fill(p)(Long.MaxValue)
    val joined = cells.map(st => oneHop(st, sel, new Array[Long](p), new Array[Long](p), free))
    val all = joined.flatten
    assert(joined.count(_.nonEmpty) > 1, "the list must hold memberships of several cells")

    def memberships(st: SubGraphState) = (0 until st.graph.numVertices).map(st.memberships.toArray(_).toSeq)
    val synced = cells.map { st =>
      val mine = all.filter(m => grid.replicaCells(m._1).contains(st.cellId))
      assert(mine.length < all.length, s"cell ${st.cellId}: the replica filter must drop something")
      val (whole, routed) = (SubGraphState.of(st.graph, st.state), SubGraphState.of(st.graph, st.state))
      val bpWhole = sync(whole, all: _*).toSeq
      val samePairs = bpWhole == sync(routed, mine: _*).toSeq
      assert(samePairs, s"cell ${st.cellId}: synced pairs differ")
      val sameMemberships = memberships(whole) == memberships(routed)
      assert(sameMemberships, s"cell ${st.cellId}: memberships differ")
      bpWhole.length
    }
    assert(synced.sum > all.length, "memberships must reach more cells than the ones that made them")
  }

  test("two-hop allocation takes exactly the edges whose endpoints share a partition") {
    // path 0-1-2-3; give 1 and 2 membership of partition 0; edge (1,2)
    // qualifies, edges (0,1) and (2,3) do not.
    val st = SubGraphState.build(0, 4, TestGraphs.path(3))
    val bp = sync(st, (1L, 0), (2L, 0))
    val delta = new Array[Long](1)
    val log = twoHop(st, bp, Array(0L), delta, noQuota)
    val g = st.graph
    val e12 = (0 until g.numEdges).find(e => g.lsrc(e) == g.localId(1L) && g.ldst(e) == g.localId(2L)).get
    assert(st.alloc(e12) == 0)
    assert(st.alloc.count(_ >= 0) == 1, "only the shared-membership edge may be taken")
    assert(delta(0) == 1)
    assert(st.drestDrops(log)._1.toSeq == Seq(1L, 2L), "the log holds the edge's ends")
  }

  test("two-hop allocation picks the least-loaded shared partition") {
    val st = SubGraphState.build(0, 4, Array((1L, 2L)))
    val bp = sync(st, (1L, 0), (1L, 1), (2L, 0), (2L, 1))
    val delta = new Array[Long](2)
    twoHop(st, bp, Array(9L, 2L), delta, noQuota)
    assert(st.alloc(0) == 1)
  }

  test("memberships and two-hop choices cross bitset words at P = 130") {
    val p = 130
    val free = Array.fill(p)(Long.MaxValue)
    // vertex 1 holds 0, 63, 64 and 129; vertex 2 holds 63, 64 and 129
    def synced(): SubGraphState = {
      val st = SubGraphState.build(0, p, Array((1L, 2L)))
      sync(st, (1L, 0), (1L, 63), (1L, 64), (1L, 129), (2L, 63), (2L, 64), (2L, 129))
      st
    }
    val st = synced()
    def held(x: Long) = (0 until p).filter(st.memberships.contains(st.graph.localId(x), _))
    assert(held(1L) == Seq(0, 63, 64, 129))
    assert(held(2L) == Seq(63, 64, 129))

    def twoHopTarget(sizes: Array[Long]): Int = {
      val s = synced()
      twoHop(s, Array(s.graph.localId(1L)), sizes, new Array[Long](p), free)
      s.alloc(0)
    }
    def loads(light: (Int, Long)*): Array[Long] = {
      val sizes = Array.fill(p)(100L)
      light.foreach { case (q, l) => sizes(q) = l }
      sizes
    }
    assert(twoHopTarget(loads(0 -> 0L, 129 -> 7L)) == 129, "partition 0 is not shared")
    assert(twoHopTarget(loads(64 -> 7L, 129 -> 8L)) == 64)
    assert(twoHopTarget(loads(63 -> 7L, 64 -> 7L, 129 -> 7L)) == 63, "ties go to the smaller id")
    assert(twoHopTarget(loads(64 -> 7L, 129 -> 7L)) == 64, "ties go to the smaller id")
  }

  test("the quota holds back one-hop and two-hop edges past quota(q)") {
    val hub = SubGraphState.build(0, 4, TestGraphs.star(5))
    val d1 = new Array[Long](1)
    oneHop(hub, Seq((0L, 0)), Array(0L), d1, Array(2L))
    assert(d1(0) == 2 && hub.alloc.count(_ == 0) == 2 && hub.alloc.count(_ < 0) == 3)

    val k4 = SubGraphState.build(0, 4, TestGraphs.k4)
    val bp = sync(k4, (0L to 3L).map(x => (x, 0)): _*)
    val d2 = new Array[Long](1)
    twoHop(k4, bp, Array(0L), d2, Array(1L))
    assert(d2(0) == 1 && k4.alloc.count(_ == 0) == 1 && k4.alloc.count(_ < 0) == 5)
  }

  test("localDrest reports remaining degree and drops zeros") {
    val st = SubGraphState.build(0, 4, TestGraphs.path(3)) // 0-1-2-3
    val delta = new Array[Long](1)
    oneHop(st, Seq((0L, 0)), Array(0L), delta, noQuota) // takes (0,1)
    val bp = sync(st, (0L, 0), (1L, 0), (1L, 2))
    val (vs, ds) = st.localDrest(bp)
    // vertex 0 exhausted (degree 1, allocated) → dropped; vertex 1 has (1,2)
    // left and is reported once
    assert(vs.toSeq == Seq(1L) && ds.toSeq == Seq(1))
  }

  test("drestDrops reports how far each vertex's local D_rest fell, once per vertex") {
    val st = SubGraphState.build(0, 4, TestGraphs.path(3) :+ ((1L, 1L))) // 0-1-2-3, a loop on 1
    val log = new SubGraphState.Log
    st.allocateOneHop(Array(1L), Array(0), Array(0L), new Array[Long](1), noQuota, log)
    val (vs, ds) = st.drestDrops(log)
    val before = Map(0L -> 1, 1L -> 4, 2L -> 2, 3L -> 1)
    // 1's three edges: (0,1), (1,2) and the loop, which counts twice
    assert(vs.toSeq.zip(ds) == Seq((0L, 1), (1L, 4), (2L, 1)))
    vs.indices.foreach(i => assert(st.unallocCount(st.graph.localId(vs(i))) == before(vs(i)) - ds(i)))
  }

  test("copy isolates the mutable state") {
    // a state that already holds allocations and memberships
    val st = SubGraphState.build(0, 4, TestGraphs.path(6)) // 0-1-…-6
    oneHop(st, Seq((0L, 0)), Array(0L, 0L), new Array[Long](2), noQuota)
    sync(st, (3L, 1), (4L, 1))
    def snapshot(s: SubGraphState) =
      (s.alloc.toSeq, s.unallocCount.toSeq,
        (0 until s.graph.numVertices).map(s.memberships.toArray(_).toSeq))
    val before = snapshot(st)
    // SubGraphState.of puts a cell together on a copy of a state
    def phase1() = {
      val cp = SubGraphState.of(st.graph, st.state)
      val delta = new Array[Long](2)
      val msgs = oneHop(cp, Seq((2L, 0), (3L, 1)), Array(0L, 0L), delta, noQuota)
      (msgs.toSeq, delta.toSeq, snapshot(cp))
    }
    val a = phase1()
    val b = phase1()
    assert(a == b, "phase 1 on two copies must agree")
    assert(a._1.nonEmpty && a._2.sum == 3)
    assert(snapshot(st) == before, "original must be untouched")
  }

  test("sampleUnallocated only returns vertices with remaining edges") {
    val st = SubGraphState.build(0, 4, TestGraphs.star(4))
    val delta = new Array[Long](1)
    oneHop(st, Seq((0L, 0)), Array(0L), delta, noQuota)
    assert(st.sampleUnallocated(10, 1L).isEmpty)
  }

  test("sampleUnallocated respects k and varies with seed offset") {
    val st = SubGraphState.build(0, 4, TestGraphs.path(20))
    val s1 = st.sampleUnallocated(5, 1L)
    assert(s1.length == 5)
    s1.foreach(v => assert(st.graph.localId(v) >= 0))
  }

  test("assignments require full allocation") {
    val st = SubGraphState.build(0, 4, TestGraphs.k4)
    intercept[IllegalArgumentException](st.assignments.toArray)
  }

  test("assignments emit every edge once after full allocation") {
    val st = SubGraphState.build(0, 4, TestGraphs.k4)
    val delta = new Array[Long](1)
    oneHop(st, (0L to 3L).map(x => (x, 0)), Array(0L), delta, noQuota)
    val as = st.assignments.toArray
    assert(as.length == 6 && as.forall(_._3 == 0))
  }
}
