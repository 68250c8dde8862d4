package repro.core

import repro.core.DistributedNE.{Config, IterationStats, Report, Step}
import repro.graph.{LocalGraph, PartitionSets}

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

/** The driver side of Distributed NE's |P| *expansion processes* (Alg. 1
  * and Alg. 4): per partition its boundary B_p, |E_p| and whether it passed
  * the cap α·|E|/|P|; and the random-restart pool they all draw from.
  *
  * B_p is the paper's B(X): the vertices p took in (a new membership the
  * sync reported) and has not expanded yet, whose global D_rest is above 0.
  * The driver keeps the current global D_rest of every boundary vertex. A
  * vertex enters with the sum of the cells' local D_rest; each iteration
  * subtracts the decrements the cells report, re-pushes it into each heap
  * that holds it, and at 0 it leaves every boundary. Each B_p is a min-heap
  * on (D_rest, vertex id) with lazy deletion: a popped entry whose D_rest
  * is no longer current, or whose vertex left B_p, is skipped.
  *
  * Per vertex it keeps, in primitive arrays indexed by a slot: the vertex
  * id, its D_rest, the last iteration that selected it, and two partition
  * sets, the boundaries that hold it (`in`) and every partition that took
  * it in or restarted from it (`seen`). The dataflow reports each (vertex,
  * partition) pair once: a cell makes a membership only where
  * `PartitionSets.add` returns true, and the sync reaches every cell
  * holding the vertex (every edge's cell is a replica cell of both
  * endpoints, see [[repro.graph.Grid2D]]), so no cell adds it again. A
  * random restart's own pair is reported after its expansion, so `select`
  * marks it seen.
  */
final class ExpansionState(cfg: Config, numEdges: Long, numCells: Int, samples: Array[Long]) {
  private val p = cfg.numPartitions
  private val cap = cfg.alpha * numEdges / p
  private val sizes = new Array[Long](p) // |E_p| so far
  private val done = new Array[Boolean](p)
  private val live = new Array[Int](p)   // |B_p|
  private val heaps = Array.fill(p)(new Heap)
  private var pool = dedup(samples)
  private var allocated = 0L
  private var iteration = 0
  private val trace = ArrayBuffer.empty[IterationStats]
  private var selected, restarts, skipped, givenUp = 0 // since the last absorb

  // Per-vertex slots: `index` is a LocalGraph id table from vertex id to slot.
  private var slots = 0
  private var index = Array(-1, -1)
  private var vertexOf = new Array[Long](16)
  private var drest = new Array[Int](16) // global D_rest; 0 once exhausted or before known
  private var takenIn = new Array[Int](16)
  private var in = PartitionSets(16, p)
  private var seen = PartitionSets(16, p)

  /** Edges not allocated yet. */
  def remaining: Long = numEdges - allocated

  /** |E_p| of every partition. */
  def partitionSizes: Array[Long] = sizes.clone()

  /** The counters of each absorbed iteration, in order. */
  def iterationStats: IndexedSeq[IterationStats] = trace.toIndexedSeq

  /** One iteration's selection (Alg. 1 lines 3–7, Alg. 4). Each partition
    * below the cap pops its boundary's k-min vertices ([[popKMin]]); with
    * an empty boundary it restarts from the next pool vertex not already
    * selected. A vertex is selected by at most one partition, the
    * lowest-id one that pops it. The quota caps each cell's allocations per
    * partition at ⌈(cap − |E_p|)/A⌉, so all A cells together pass the cap by
    * at most ~A edges (EB ≈ α).
    */
  def select(): Step = {
    iteration += 1
    val (selVertex, selPart) = (new ArrayBuilder.ofLong, new ArrayBuilder.ofInt)
    var poolCursor = 0
    var q = 0
    while (q < p) {
      if (!done(q) && live(q) > 0) popKMin(q, selVertex, selPart)
      else if (!done(q)) {
        heaps(q).clear() // nothing live is left in it
        while (poolCursor < pool.length && taken(pool(poolCursor))) poolCursor += 1
        if (poolCursor < pool.length) {
          val s = slotFor(pool(poolCursor)); poolCursor += 1
          takenIn(s) = iteration
          seen.add(s, q)
          selVertex += vertexOf(s); selPart += q
          restarts += 1
        }
      }
      q += 1
    }
    val (vs, ps) = (selVertex.result(), selPart.result())
    require(vs.nonEmpty, s"no expandable vertex with $remaining edges left")
    selected += vs.length
    val quota = Array.tabulate(p) { q =>
      if (done(q)) 0L else math.max(1L, math.ceil((cap - sizes(q)) / numCells).toLong)
    }
    val order = vs.indices.sortBy(vs(_)) // each vertex is selected once
    Step(order.map(vs).toArray, order.map(ps).toArray, sizes.clone(), quota)
  }

  /** Alg. 4's multi-expansion pop: partition q's k = max(1, ⌈λ·|B_q|⌉)
    * minimum-D_rest vertices, fewer once their D_rest sum reaches q's
    * remaining capacity, which keeps EB ≈ α even for a large λ. A vertex a
    * lower-id partition took in this iteration goes back into B_q.
    */
  private def popKMin(q: Int, selVertex: ArrayBuilder.ofLong, selPart: ArrayBuilder.ofInt): Unit = {
    val heap = heaps(q)
    val k = math.max(1, math.ceil(cfg.lambda * live(q)).toInt)
    val budget = math.max(1L, math.ceil(cap - sizes(q)).toLong)
    val back = new ArrayBuilder.ofLong
    var n = 0
    var drestSum = 0L
    while (n < k && heap.nonEmpty && (n == 0 || drestSum < budget)) {
      val e = heap.pop()
      val (d, s) = ((e >>> 32).toInt, e.toInt)
      if (!in.contains(s, q) || drest(s) != d) skipped += 1
      else if (takenIn(s) == iteration) back += e
      else {
        in.remove(s, q); live(q) -= 1
        takenIn(s) = iteration
        selVertex += vertexOf(s); selPart += q
        drestSum += d
        n += 1
      }
    }
    val held = back.result()
    held.foreach(heap.push)
    givenUp += held.length
  }

  /** Takes in one iteration's step and its cells' reports, in cell order:
    * the sizes and their total, the partitions now past the cap, the
    * decrements of the boundary vertices' D_rest, the D_rest of vertices new
    * to the boundaries (the sum of the cells' local D_rest), the new
    * boundary pairs (the step's sync list) and the next restart pool.
    */
  def absorb(step: Step, reports: Array[Report]): Unit = {
    var now = 0L
    reports.foreach { r =>
      var q = 0
      while (q < p) { sizes(q) += r.delta(q); now += r.delta(q); q += 1 }
    }
    allocated += now
    trace += IterationStats(selected, restarts, skipped, givenUp, now, step.syncVertex.length)
    selected = 0; restarts = 0; skipped = 0; givenUp = 0
    var q = 0
    while (q < p) {
      if (!done(q) && sizes(q) > cap) { done(q) = true; live(q) = 0; heaps(q).clear() }
      q += 1
    }

    // boundary vertices: current D_rest, re-pushed where it fell
    val fell = new ArrayBuilder.ofInt
    reports.foreach { r =>
      var i = 0
      while (i < r.dropVertex.length) {
        val s = slotOf(r.dropVertex(i))
        if (s >= 0 && drest(s) > 0) {
          drest(s) -= r.drop(i)
          assert(drest(s) >= 0, s"vertex ${vertexOf(s)}: D_rest fell below 0")
          fell += s
        }
        i += 1
      }
    }
    val changed = fell.result()
    java.util.Arrays.sort(changed)
    var i = 0
    while (i < changed.length) {
      val s = changed(i)
      if (i == 0 || changed(i - 1) != s) {
        if (drest(s) > 0) in.foreach(s) { q => if (!done(q)) heaps(q).push(entry(drest(s), s)) }
        else { in.foreach(s) { q => if (!done(q)) live(q) -= 1 }; in.clear(s) }
      }
      i += 1
    }

    // untracked vertices (D_rest 0) get the sum of their cells' reports;
    // all are picked out before any is added, as an added one looks tracked
    val (fresh, freshDrest) = (new ArrayBuilder.ofInt, new ArrayBuilder.ofInt)
    reports.foreach { r =>
      var i = 0
      while (i < r.drestVertex.length) {
        val s = slotFor(r.drestVertex(i))
        if (drest(s) == 0) { fresh += s; freshDrest += r.drest(i) }
        i += 1
      }
    }
    val (fs, fd) = (fresh.result(), freshDrest.result())
    i = 0
    while (i < fs.length) { drest(fs(i)) += fd(i); i += 1 }

    // the new (vertex, partition) pairs
    i = 0
    while (i < step.syncVertex.length) {
      val s = slotOf(step.syncVertex(i))
      val q = step.syncPart(i)
      if (s >= 0 && seen.add(s, q) && drest(s) > 0 && !done(q)) {
        in.add(s, q)
        live(q) += 1
        heaps(q).push(entry(drest(s), s))
      }
      i += 1
    }
    pool = dedup(reports.flatMap(_.samples))
  }

  private def taken(v: Long): Boolean = {
    val s = slotOf(v)
    s >= 0 && takenIn(s) == iteration
  }

  /** The slot of `v`, or -1. */
  private def slotOf(v: Long): Int = index(LocalGraph.probe(index, vertexOf, v))

  /** The slot of `v`, made (D_rest 0, in no set) if it has none. */
  private def slotFor(v: Long): Int = {
    val at = LocalGraph.probe(index, vertexOf, v)
    if (index(at) >= 0) index(at)
    else {
      if (slots == vertexOf.length) {
        val n = 2 * slots
        vertexOf = java.util.Arrays.copyOf(vertexOf, n)
        drest = java.util.Arrays.copyOf(drest, n)
        takenIn = java.util.Arrays.copyOf(takenIn, n)
        in = in.resized(n)
        seen = seen.resized(n)
      }
      vertexOf(slots) = v
      index(at) = slots
      slots += 1
      if (2 * slots > index.length) index = LocalGraph.rehash(vertexOf, slots, 2 * index.length)
      slots - 1
    }
  }

  /** A heap entry: D_rest in the high word, slot in the low one. */
  private def entry(d: Int, s: Int): Long = (d.toLong << 32) | s

  /** Heap order: smaller D_rest first, ties to the smaller vertex id. */
  private def before(x: Long, y: Long): Boolean = {
    val (dx, dy) = (x >>> 32, y >>> 32)
    dx < dy || (dx == dy && vertexOf(x.toInt) < vertexOf(y.toInt))
  }

  /** A binary min-heap of entries in [[before]] order. */
  private final class Heap {
    private var a = new Array[Long](16)
    private var n = 0

    def nonEmpty: Boolean = n > 0

    def clear(): Unit = n = 0

    def push(e: Long): Unit = {
      if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
      var i = n
      n += 1
      while (i > 0 && before(e, a((i - 1) >>> 1))) { a(i) = a((i - 1) >>> 1); i = (i - 1) >>> 1 }
      a(i) = e
    }

    def pop(): Long = {
      val top = a(0)
      n -= 1
      val last = a(n)
      var i = 0
      var c = 1
      while (c < n) {
        if (c + 1 < n && before(a(c + 1), a(c))) c += 1
        if (before(a(c), last)) { a(i) = a(c); i = c; c = 2 * i + 1 }
        else c = n
      }
      a(i) = last
      top
    }
  }

  /** The first occurrence of each vertex, in order. */
  private def dedup(xs: Array[Long]): Array[Long] = {
    val seen = new java.util.HashSet[Long]()
    xs.filter(seen.add)
  }
}
