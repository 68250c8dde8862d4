package repro.apps

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class GasEngineSpec extends AnyFunSuite {

  private def engineOf(edges: Array[(Long, Long)], p: Int, seed: Long = 3L) =
    new GasEngine(edges, TestGraphs.randomAssign(edges, p, seed), p)

  private val skewed = TestGraphs.skewed(300, 1500)

  // ---- structure ----

  test("replicas include exactly the partitions holding incident edges") {
    val edges = TestGraphs.twoTriangles
    val assign = Array(0, 0, 0, 1, 1, 1, 0) // bridge (2,3) on partition 0
    val e = new GasEngine(edges, assign, 2)
    def reps(x: Long) = e.replicaParts(e.graph.localId(x)).toSeq
    assert(reps(0L) == Seq(0))
    assert(reps(3L) == Seq(0, 1)) // bridge replicates vertex 3
    assert(reps(5L) == Seq(1))
  }

  test("master is always one of the replicas") {
    val e = engineOf(skewed, 8)
    (0 until e.graph.numVertices).foreach { lv =>
      assert(e.replicaParts(lv).contains(e.master(lv)))
    }
  }

  test("edge and replica tallies are consistent") {
    val e = engineOf(skewed, 8)
    assert(e.edgesPerPart.sum == skewed.length)
    assert(e.replicasPerPart.sum == e.replicaParts.map(_.length.toLong).sum)
    assert(e.totalMirrors == e.replicaParts.map(_.length.toLong - 1).sum)
  }

  test("engine rejects >64 partitions and bad assignments") {
    intercept[IllegalArgumentException](new GasEngine(TestGraphs.k4, Array.fill(6)(0), 65))
    intercept[IllegalArgumentException](new GasEngine(TestGraphs.k4, Array.fill(6)(9), 4))
    intercept[IllegalArgumentException](new GasEngine(TestGraphs.k4, Array.fill(5)(0), 4))
  }

  // ---- SSSP ----

  test("sssp equals BFS distances on the skewed graph") {
    val e = engineOf(skewed, 8)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    val (dist, stats) = e.sssp(src)
    val ref = TestGraphs.bfsDistances(skewed, src)
    (0 until e.graph.numVertices).foreach { lv =>
      val v = e.graph.vertexIds(lv)
      val expected = ref.getOrElse(v, Long.MaxValue)
      assert(dist(lv) == expected, s"distance of $v: ${dist(lv)} vs BFS $expected")
    }
    assert(stats.supersteps >= 1 && stats.comBytes >= 0)
  }

  test("sssp distances are invariant under the partitioning") {
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    val e1 = engineOf(skewed, 4, seed = 1)
    val e2 = engineOf(skewed, 8, seed = 2)
    val d1 = e1.sssp(src)._1.zipWithIndex.map { case (d, lv) => e1.graph.vertexIds(lv) -> d }.toMap
    val d2 = e2.sssp(src)._1.zipWithIndex.map { case (d, lv) => e2.graph.vertexIds(lv) -> d }.toMap
    assert(d1 == d2, "partitioning must not change the algorithm's result")
  }

  test("sssp on a path takes diameter+1 supersteps (final barren round)") {
    val edges = TestGraphs.path(10)
    val e = new GasEngine(edges, TestGraphs.randomAssign(edges, 2), 2)
    val (_, stats) = e.sssp(0L)
    assert(stats.supersteps == 11)
  }

  test("sssp rejects an unknown source") {
    intercept[IllegalArgumentException](engineOf(TestGraphs.k4, 2).sssp(99L))
  }

  // ---- WCC ----

  test("wcc equals union-find components") {
    val e = engineOf(skewed, 8)
    val (labels, _) = e.wcc()
    val ref = TestGraphs.componentsByMinId(skewed)
    (0 until e.graph.numVertices).foreach { lv =>
      val v = e.graph.vertexIds(lv)
      assert(labels(lv) == ref(v), s"component of $v: ${labels(lv)} vs ${ref(v)}")
    }
  }

  test("wcc on two triangles finds two components") {
    val e = new GasEngine(TestGraphs.twoTriangles.take(6),
      TestGraphs.randomAssign(TestGraphs.twoTriangles.take(6), 2), 2)
    val (labels, _) = e.wcc()
    assert(labels.distinct.sorted.toSeq == Seq(0L, 3L))
  }

  // ---- PageRank ----

  test("pagerank matches the reference power iteration") {
    val e = engineOf(skewed, 8)
    val (ranks, _) = e.pageRank(iterations = 15)
    val ref = TestGraphs.pageRankReference(skewed, iterations = 15)
    (0 until e.graph.numVertices).foreach { lv =>
      val v = e.graph.vertexIds(lv)
      assert(math.abs(ranks(lv) - ref(v)) < 1e-8, s"rank of $v: ${ranks(lv)} vs ${ref(v)}")
    }
  }

  test("pagerank ranks sum to ~1") {
    val e = engineOf(skewed, 4)
    val (ranks, _) = e.pageRank(10)
    assert(math.abs(ranks.sum - 1.0) < 1e-6)
  }

  test("pagerank COM is exactly 2 · 16B · mirrors · iterations") {
    val e = engineOf(skewed, 8)
    val (_, stats) = e.pageRank(7)
    assert(stats.comBytes == 2L * 16L * e.totalMirrors * 7)
  }

  test("pagerank ET grows linearly with iterations") {
    val e = engineOf(skewed, 8)
    val t1 = e.pageRank(5)._2.elapsedSeconds
    val t2 = e.pageRank(10)._2.elapsedSeconds
    assert(math.abs(t2 - 2 * t1) < 1e-9)
  }

  // ---- cost accounting across partitionings ----

  test("a lower-RF partitioning produces less PR communication") {
    val p = 8
    val good = repro.core.SequentialNE.partition(skewed, repro.core.SequentialNE.Config(p))
    val bad = TestGraphs.randomAssign(skewed, p)
    val eGood = new GasEngine(skewed, good, p)
    val eBad = new GasEngine(skewed, bad, p)
    assert(eGood.totalMirrors < eBad.totalMirrors,
      "NE partitioning must produce fewer mirrors than random")
    val comGood = eGood.pageRank(5)._2.comBytes
    val comBad = eBad.pageRank(5)._2.comBytes
    assert(comGood < comBad)
  }

  test("work balance is >= 1 for all apps") {
    val e = engineOf(skewed, 8)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    assert(e.sssp(src)._2.workBalance >= 1.0)
    assert(e.wcc()._2.workBalance >= 1.0)
    assert(e.pageRank(3)._2.workBalance >= 1.0)
  }

  test("single-partition run needs zero communication") {
    val assign = Array.fill(skewed.length)(0)
    val e = new GasEngine(skewed, assign, 1)
    assert(e.totalMirrors == 0)
    assert(e.pageRank(3)._2.comBytes == 0)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    assert(e.sssp(src)._2.comBytes == 0)
    assert(e.wcc()._2.comBytes == 0)
  }

  test("cost model composes its three terms") {
    val cm = CostModel(secondsPerEdge = 1.0, secondsPerByte = 2.0, secondsPerSuperstep = 3.0)
    assert(cm.superstepSeconds(5, 7) == 5 * 1.0 + 7 * 2.0 + 3.0)
  }
}
