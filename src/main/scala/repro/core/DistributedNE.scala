package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.graph.{Grid2D, Hashing}

import scala.collection.mutable

/** Distributed Neighbor Expansion (the paper's contribution, §3–§5) as a
  * Spark RDD dataflow.
  *
  * Roles (see DESIGN.md §2):
  *  - allocation processes  = the `A = |P|` grid cells of an
  *    `RDD[(cell, SubGraphState)]`, 2D-hash initial distribution;
  *  - expansion processes   = driver-side [[ExpansionState]] heaps (tiny);
  *  - one iteration         = one `collect` job of two stages:
  *      1. one-hop allocation under the broadcast selection (phase 1), then
  *         a `partitionBy` shuffle of new vertex→partition memberships to
  *         each vertex's replica cells (row ∪ column of the grid);
  *      2. membership sync + two-hop allocation + local-D_rest reports
  *         (phases 2–4), whose small reports are collected and reduced on
  *         the driver (the global D_rest gather).
  *
  * Every per-iteration transformation copies state before writing, so the
  * dataflow stays a pure function of its inputs: a lineage replay after
  * cache loss reproduces the same partitioning. Lineage is truncated with
  * `localCheckpoint` every few iterations.
  */
object DistributedNE {

  /** Tuning knobs; defaults follow the paper (§5, §7.1). */
  final case class Config(
      numPartitions: Int,
      alpha: Double = 1.1,      // imbalance factor (Eq. 2)
      lambda: Double = 0.1,     // expansion factor (Alg. 4)
      seed: Long = 42L) {
    require(numPartitions >= 1, "need at least one partition")
    require(alpha > 1.0, s"imbalance factor must exceed 1.0, got $alpha")
    require(lambda > 0.0 && lambda <= 1.0, s"lambda must be in (0,1], got $lambda")
  }

  final case class Result(
      assignments: RDD[(Long, Long, Int)],
      numEdges: Long,
      iterations: Int,
      partitionSizes: Array[Long])

  private val SamplesPerCell = 8 // random-restart candidates reported per cell
  private val CheckpointEvery = 20
  private val MaxIterations = 100000

  private final case class Phase1Out(
      state: SubGraphState,
      msgs: Array[(Long, Int)],
      delta: Array[Long]) // per-partition edges allocated in phase 1

  private final case class Phase2Out(
      state: SubGraphState,
      delta: Array[Long],                 // phase-1 + two-hop allocations
      reports: Array[(Long, Int, Int)],   // (vertex, part, local D_rest)
      samples: Array[Long])

  /** Partitions `edges` (canonical undirected) into `cfg.numPartitions`
    * edge sets. Returns the assignment as an RDD of (u, v, part) triples.
    */
  def partition(spark: SparkSession, edges: RDD[(Long, Long)], cfg: Config): Result = {
    val sc = spark.sparkContext
    val p = cfg.numPartitions
    val grid = Grid2D.forPartitions(p)
    val cellPart = new HashPartitioner(grid.numCells) // cell ids route to themselves

    // ---- initial distribution: 2D-hash + CSR per cell (paper §4) ----
    var stateCached: RDD[_] = null
    var state: RDD[(Int, SubGraphState)] = edges
      .map { case (u, v) => (grid.cellOf(u, v), (u, v)) }
      .groupByKey(cellPart)
      .mapPartitionsWithIndex({ (cell, it) =>
        val local = it.flatMap(_._2).toArray
        Iterator((cell, SubGraphState.build(cell, local)))
      }, preservesPartitioning = true)
      .persist(StorageLevel.MEMORY_ONLY)
    stateCached = state

    val init = state
      .map { case (cell, st) =>
        (cell, st.graph.numEdges.toLong, st.sampleUnallocated(SamplesPerCell, cfg.seed))
      }
      .collect()
    val numEdges = init.map(_._2).sum
    require(numEdges > 0, "cannot partition an empty graph")
    var pool: Array[Long] = dedupPool(init.flatMap(_._3))

    // ---- driver-side expansion processes ----
    val exps = Array.tabulate(p)(new ExpansionState(_))
    val cap = cfg.alpha * numEdges / p
    var totalAllocated = 0L
    var iter = 0

    while (totalAllocated < numEdges && iter < MaxIterations) {
      // -- selection (Alg. 1 lines 3–7 / Alg. 4) --
      val sel = mutable.ArrayBuffer.empty[(Long, Int)]
      val selectedVs = new java.util.HashSet[Long]()
      var poolCursor = 0
      var pi = 0
      while (pi < p) {
        val exp = exps(pi)
        if (!exp.done) {
          if (exp.boundarySize > 0) {
            val budget = math.max(1L, math.ceil(cap - exp.size).toLong)
            exp.popKMin(cfg.lambda, budget).foreach { case (v, _) =>
              sel += ((v, pi)); selectedVs.add(v)
            }
          } else {
            // random restart: next fresh candidate not already claimed
            while (poolCursor < pool.length && selectedVs.contains(pool(poolCursor)))
              poolCursor += 1
            if (poolCursor < pool.length) {
              val v = pool(poolCursor); poolCursor += 1
              exp.markExpanded(v)
              selectedVs.add(v)
              sel += ((v, pi))
            }
          }
        }
        pi += 1
      }
      require(sel.nonEmpty,
        s"no expandable vertex at iteration $iter with ${numEdges - totalAllocated} edges left")

      val selOrder = sel.sortBy(x => (x._1, x._2)).toArray
      val sizes = exps.map(_.size)
      // per-cell per-partition allocation quota for this iteration: all A
      // cells together may exceed the cap by at most ~A edges (EB ≈ α)
      val quota = Array.tabulate(p) { q =>
        if (exps(q).done) 0L
        else math.max(1L, math.ceil((cap - exps(q).size) / grid.numCells).toLong)
      }
      val selBc = sc.broadcast(selOrder)
      val sizesBc = sc.broadcast(sizes)
      val quotaBc = sc.broadcast(quota)
      val gridBc = grid
      val numP = p
      val iterSeed = Hashing.mix64(cfg.seed ^ (iter + 1).toLong)

      // -- phase 1: one-hop allocation --
      val phase1 = state.mapPartitions({ it =>
        val (cell, st0) = it.next()
        val st = st0.copy()
        val delta = new Array[Long](numP)
        val msgs = st.allocateOneHop(selBc.value, sizesBc.value, delta, quotaBc.value)
        Iterator((cell, Phase1Out(st, msgs.toArray, delta)))
      }, preservesPartitioning = true).persist(StorageLevel.MEMORY_ONLY)

      // -- membership sync shuffle: each (vertex, part) to the vertex's
      //    replica cells (computable from the id — no replica directory) --
      val msgs: RDD[(Int, (Long, Int))] = phase1
        .flatMap { case (_, out) =>
          out.msgs.iterator.flatMap { m =>
            gridBc.replicaCells(m._1).iterator.map(c => (c, m))
          }
        }
        .partitionBy(cellPart)

      // -- phases 2–4: sync, two-hop allocation, local D_rest, samples --
      val phase2 = phase1.zipPartitions(msgs, preservesPartitioning = true) { (p1It, msgIt) =>
        val (cell, out1) = p1It.next()
        val st = out1.state.copy()
        val delta = out1.delta.clone()
        val bp = st.applySync(msgIt.map(_._2))
        st.allocateTwoHop(bp, sizesBc.value, delta, quotaBc.value)
        val reports = st.localDrest(bp)
        val samples = st.sampleUnallocated(SamplesPerCell, iterSeed)
        Iterator((cell, Phase2Out(st, delta, reports, samples)))
      }.persist(StorageLevel.MEMORY_ONLY)
      if ((iter + 1) % CheckpointEvery == 0) phase2.localCheckpoint()

      val collected = phase2
        .map { case (cell, o) => (cell, o.delta, o.reports, o.samples) }
        .collect()

      // -- driver update: sizes, termination, global D_rest, random pool --
      val drest = new mutable.HashMap[(Long, Int), Int]()
      collected.foreach { case (_, delta, reports, _) =>
        var q = 0
        while (q < numP) {
          exps(q).size += delta(q)
          totalAllocated += delta(q)
          q += 1
        }
        reports.foreach { case (v, q2, d) =>
          drest.updateWith((v, q2))(prev => Some(prev.getOrElse(0) + d))
        }
      }
      exps.foreach { e => if (e.size > cap) e.done = true }
      drest.foreach { case ((v, q), d) =>
        if (!exps(q).done) exps(q).insert(v, d)
      }
      pool = dedupPool(collected.flatMap(_._4))

      // -- rotate cached state --
      state = phase2.mapValues(_.state)
      phase1.unpersist(blocking = false)
      stateCached.unpersist(blocking = false)
      stateCached = phase2
      selBc.unpersist(blocking = false)
      sizesBc.unpersist(blocking = false)
      quotaBc.unpersist(blocking = false)
      iter += 1
    }

    require(totalAllocated == numEdges,
      s"Distributed NE did not converge in $MaxIterations iterations " +
      s"($totalAllocated / $numEdges edges allocated)")

    val assignments = state.flatMap(_._2.assignments)
    assignments.persist(StorageLevel.MEMORY_ONLY)
    assignments.count()
    stateCached.unpersist(blocking = false)
    Result(assignments, numEdges, iter, exps.map(_.size))
  }

  /** Deduplicated random-restart candidate pool, order-stable in the input. */
  private def dedupPool(xs: Array[Long]): Array[Long] = {
    val seen = new java.util.HashSet[Long]()
    xs.filter(seen.add)
  }
}
