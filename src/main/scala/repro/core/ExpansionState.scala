package repro.core

import repro.core.DistributedNE.{Config, Report, Step}

import scala.collection.mutable

/** The driver side of Distributed NE's |P| *expansion processes* (Alg. 1
  * and Alg. 4): per partition its boundary `B_p` (a min-heap on global
  * D_rest, ties to the smaller vertex id), |E_p| and whether it passed the
  * cap α·|E|/|P|; and the random-restart pool they all draw from.
  *
  * Per vertex it keeps only the boundaries and the restart marks. The
  * dataflow reports each (vertex, partition) pair in one iteration: a cell
  * reports a membership only where `PartitionSets.add` returns true, and
  * the sync reaches every cell holding the vertex (every edge's cell is a
  * replica cell of both endpoints, see [[repro.graph.Grid2D]]), so no cell
  * adds it again. A random restart's own pair can still be reported after
  * its expansion, so those pairs are marked for the whole run.
  */
final class ExpansionState(cfg: Config, numEdges: Long, numCells: Int, samples: Array[Long]) {
  private val p = cfg.numPartitions
  private val cap = cfg.alpha * numEdges / p
  private val heaps = Array.fill(p)(mutable.PriorityQueue.empty[(Int, Long)](
    Ordering.Tuple2[Int, Long].reverse)) // (D_rest, vertex) min-heaps
  private val restarts = mutable.HashSet.empty[(Long, Int)]
  private val sizes = new Array[Long](p) // |E_p| so far
  private val done = new Array[Boolean](p)
  private var pool = dedup(samples)
  private var allocated = 0L

  /** Edges not allocated yet. */
  def remaining: Long = numEdges - allocated

  /** |E_p| of every partition. */
  def partitionSizes: Array[Long] = sizes.clone()

  /** One iteration's selection (Alg. 1 lines 3–7, Alg. 4). Each partition
    * below the cap pops its boundary's k-min vertices ([[popKMin]]); with
    * an empty boundary it restarts from the next pool vertex not already
    * selected. The quota caps each cell's allocations per partition at
    * ⌈(cap − |E_p|)/A⌉, so all A cells together pass the cap by at most ~A
    * edges (EB ≈ α).
    */
  def select(): Step = {
    val sel = mutable.ArrayBuffer.empty[(Long, Int)]
    val selected = new java.util.HashSet[Long]()
    var poolCursor = 0
    var q = 0
    while (q < p) {
      if (!done(q) && heaps(q).nonEmpty) {
        popKMin(q).foreach { v => sel += ((v, q)); selected.add(v) }
      } else if (!done(q)) {
        while (poolCursor < pool.length && selected.contains(pool(poolCursor))) poolCursor += 1
        if (poolCursor < pool.length) {
          val v = pool(poolCursor); poolCursor += 1
          restarts += ((v, q)); selected.add(v)
          sel += ((v, q))
        }
      }
      q += 1
    }
    require(sel.nonEmpty, s"no expandable vertex with $remaining edges left")
    val quota = Array.tabulate(p) { q =>
      if (done(q)) 0L else math.max(1L, math.ceil((cap - sizes(q)) / numCells).toLong)
    }
    val sorted = sel.sortBy(x => (x._1, x._2))
    Step(sorted.map(_._1).toArray, sorted.map(_._2).toArray, sizes.clone(), quota)
  }

  /** Alg. 4's multi-expansion pop: partition q's k = max(1, ⌈λ·|B_q|⌉)
    * minimum-D_rest vertices, fewer once their D_rest sum reaches q's
    * remaining capacity, which keeps EB ≈ α even for a large λ.
    */
  private def popKMin(q: Int): mutable.ArrayBuffer[Long] = {
    val heap = heaps(q)
    val k = math.max(1, math.ceil(cfg.lambda * heap.size).toInt)
    val budget = math.max(1L, math.ceil(cap - sizes(q)).toLong)
    val out = mutable.ArrayBuffer.empty[Long]
    var drestSum = 0L
    while (out.length < k && heap.nonEmpty && (out.isEmpty || drestSum < budget)) {
      val (d, v) = heap.dequeue()
      out += v
      drestSum += d
    }
    out
  }

  /** Takes in one iteration's reports, in cell order: the sizes and their
    * total, the partitions now past the cap, the new boundary vertices
    * with their global D_rest (the sum of the cells' local D_rest), and
    * the next restart pool.
    */
  def absorb(reports: Array[Report]): Unit = {
    val drest = new mutable.HashMap[(Long, Int), Int]()
    reports.foreach { r =>
      var q = 0
      while (q < p) {
        sizes(q) += r.delta(q)
        allocated += r.delta(q)
        q += 1
      }
      var i = 0
      while (i < r.drest.length) {
        drest.updateWith((r.drestVertex(i), r.drestPart(i)))(prev => Some(prev.getOrElse(0) + r.drest(i)))
        i += 1
      }
    }
    var q = 0
    while (q < p) { if (sizes(q) > cap) done(q) = true; q += 1 }
    drest.foreach { case (vq @ (v, q), d) =>
      if (!done(q) && !restarts.contains(vq)) heaps(q).enqueue((d, v))
    }
    pool = dedup(reports.flatMap(_.samples))
  }

  /** The first occurrence of each vertex, in order. */
  private def dedup(xs: Array[Long]): Array[Long] = {
    val seen = new java.util.HashSet[Long]()
    xs.filter(seen.add)
  }
}
