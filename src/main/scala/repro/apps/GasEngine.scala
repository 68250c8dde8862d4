package repro.apps

import repro.graph.{Hashing, LocalGraph, PartitionSets}

/** Deterministic simulator of a synchronous GAS (gather–apply–scatter)
  * engine — the PowerLyra/PowerGraph substrate the paper runs SSSP, WCC and
  * PageRank on in Table 5.
  *
  * The graph is held once (global CSR) with a per-edge partition label; a
  * vertex is *replicated* on every partition holding one of its edges, and
  * one replica (hash-chosen, as in PowerGraph) is the *master*. Per
  * superstep the engine executes the real algorithm and counts exactly:
  *
  *  - local work per partition  = edges scanned by that partition
  *    (+ its replica count for apply/scatter vertex work),
  *  - gather traffic            = partial-aggregate records sent by
  *    non-master replicas to the master,
  *  - scatter traffic           = updated values sent master → mirrors.
  *
  * `ET` is then the [[CostModel]] applied per superstep; `COM` and `WB` are
  * the raw counters. Replica and per-superstep proposer sets are
  * [[PartitionSets]], so any partition count works.
  */
final class GasEngine(edges: Array[(Long, Long)], assign: Array[Int], val numParts: Int) {
  require(edges.length == assign.length, "assignment must cover every edge")
  require(numParts >= 1, s"engine needs at least one partition, got $numParts")
  require(assign.forall(p => p >= 0 && p < numParts), "partition id out of range")

  val graph: LocalGraph = LocalGraph.build(edges)
  private val n = graph.numVertices
  private val m = edges.length

  /** Per-vertex replica partitions (sorted) and hash-chosen master. */
  val replicaParts: Array[Array[Int]] = {
    val sets = PartitionSets(n, numParts)
    (0 until m).foreach { e => sets.add(graph.lsrc(e), assign(e)); sets.add(graph.ldst(e), assign(e)) }
    Array.tabulate(n)(sets.toArray)
  }
  val master: Array[Int] = Array.tabulate(n) { lv =>
    val reps = replicaParts(lv)
    reps(Hashing.bucket(graph.vertexIds(lv), reps.length, salt = 0x3A57E8L))
  }

  /** |E_p| per partition. */
  val edgesPerPart: Array[Long] = {
    val c = new Array[Long](numParts)
    assign.foreach(p => c(p) += 1)
    c
  }
  /** |V(E_p)| per partition. */
  val replicasPerPart: Array[Long] = {
    val c = new Array[Long](numParts)
    replicaParts.foreach(_.foreach(p => c(p) += 1))
    c
  }
  /** Σ_v (replicas(v) − 1) — the mirror count that drives all-active traffic. */
  val totalMirrors: Long = replicaParts.map(_.length.toLong - 1).sum

  import GasEngine.{Damping, Stats}

  /** Frontier-driven min-propagation: the common core of SSSP (unit
    * weights, as run on PowerLyra) and WCC (min-label flooding).
    *
    * @param init per-vertex initial value; Long.MaxValue = inactive start
    * @return (final values, stats)
    */
  private def minPropagation(app: String, init: Array[Long],
                             initialFrontier: Array[Int],
                             relax: Long => Long): (Array[Long], Stats) = {
    val value = init.clone()
    var frontier = initialFrontier
    val totalWork = new Array[Long](numParts)
    var comBytes = 0L
    var elapsed = 0.0
    var supersteps = 0

    // per vertex, the best proposal of this superstep (Long.MaxValue = none)
    // and the partitions that proposed it
    val candidate = Array.fill(n)(Long.MaxValue)
    val proposers = PartitionSets(n, numParts)

    while (frontier.nonEmpty) {
      supersteps += 1
      val stepWork = new Array[Long](numParts)
      var stepBytes = 0L
      val next = scala.collection.mutable.ArrayBuffer.empty[Int]
      frontier.foreach { lv =>
        val send = relax(value(lv))
        var k = graph.adjOff(lv)
        while (k < graph.adjOff(lv + 1)) {
          val e = graph.adjEdge(k)
          val lw = graph.other(e, lv)
          val p = assign(e)
          stepWork(p) += 1
          if (send < value(lw)) {
            if (candidate(lw) == Long.MaxValue) next += lw
            if (send < candidate(lw)) candidate(lw) = send
            // gather: every proposing replica that is not the master ships
            // one partial-aggregate record to the master
            if (proposers.add(lw, p) && p != master(lw)) stepBytes += CostModel.RecordBytes
          }
          k += 1
        }
      }
      // apply at the master: a proposal is only made below `value`, so every
      // proposed vertex improves
      next.foreach { lw =>
        value(lw) = candidate(lw)
        candidate(lw) = Long.MaxValue
        proposers.clear(lw)
        // scatter: master broadcasts the new value to all mirrors
        stepBytes += (replicaParts(lw).length - 1) * CostModel.RecordBytes
        stepWork(master(lw)) += 1
      }
      var p = 0
      var maxWork = 0L
      while (p < numParts) {
        totalWork(p) += stepWork(p)
        if (stepWork(p) > maxWork) maxWork = stepWork(p)
        p += 1
      }
      comBytes += stepBytes
      elapsed += CostModel.default.superstepSeconds(maxWork, stepBytes)
      frontier = next.toArray
    }
    (value, Stats(app, supersteps, comBytes, elapsed, balance(totalWork), totalWork))
  }

  /** Single-source shortest path with unit weights from `source`.
    * @return distances indexed by the engine's local vertex ids
    *         (Long.MaxValue = unreachable).
    */
  def sssp(source: Long): (Array[Long], Stats) = {
    val ls = graph.localId(source)
    require(ls >= 0, s"unknown source vertex $source")
    val init = Array.fill(n)(Long.MaxValue)
    init(ls) = 0L
    minPropagation("SSSP", init, Array(ls), d => d + 1)
  }

  /** Weakly connected components by min-vertex-id flooding. */
  def wcc(): (Array[Long], Stats) = {
    minPropagation("WCC", graph.vertexIds, Array.tabulate(n)(identity), l => l)
  }

  /** PageRank with damping 0.85 over the symmetrized graph. All vertices
    * are active every iteration, so the traffic is the static mirror count
    * both ways; the ranks themselves are computed exactly (and verified
    * against a reference in tests).
    */
  def pageRank(iterations: Int): (Array[Double], Stats) = {
    require(iterations >= 1)
    val deg = Array.tabulate(n)(graph.degree)
    var rank = Array.fill(n)(1.0 / math.max(1, n))
    var iter = 0
    while (iter < iterations) {
      val next = Array.fill(n)((1.0 - Damping) / math.max(1, n))
      var lv = 0
      while (lv < n) {
        val contrib = if (deg(lv) == 0) 0.0 else Damping * rank(lv) / deg(lv)
        var k = graph.adjOff(lv)
        while (k < graph.adjOff(lv + 1)) {
          next(graph.other(graph.adjEdge(k), lv)) += contrib
          k += 1
        }
        lv += 1
      }
      rank = next
      iter += 1
    }
    // static accounting: every edge is scanned in both directions, every
    // vertex is applied at its master and synced to all mirrors, twice
    // (gather partials in, new rank out)
    val perIterBytes = 2L * totalMirrors * CostModel.RecordBytes
    val workPerIter = Array.tabulate(numParts)(p => 2L * edgesPerPart(p) + replicasPerPart(p))
    val totalWork = workPerIter.map(_ * iterations)
    val maxWork = workPerIter.max
    val elapsed = iterations * CostModel.default.superstepSeconds(maxWork, perIterBytes)
    (rank, Stats("PageRank", iterations, perIterBytes * iterations, elapsed,
                 balance(totalWork), totalWork))
  }

  private def balance(work: Array[Long]): Double = {
    val mean = work.map(_.toDouble).sum / work.length
    if (mean == 0) 1.0 else work.max / mean
  }
}

object GasEngine {
  private final val Damping = 0.85

  /** Per-application counters: exact communication bytes and per-partition
    * work, plus the modeled elapsed time (see [[CostModel]]).
    */
  final case class Stats(app: String, supersteps: Int, comBytes: Long,
                         elapsedSeconds: Double, workBalance: Double,
                         workPerPart: Array[Long])
}
