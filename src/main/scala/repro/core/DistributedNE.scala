package repro.core

import org.apache.spark.Partitioner
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
  *    `RDD[(cell, Cell)]`, 2D-hash initial distribution. The cells are
  *    packed, in cell order, into `S = min(A, defaultParallelism)` Spark
  *    partitions ("slots", see [[CellSlots]]), so an iteration runs 2·S
  *    tasks and its sync shuffle writes S×S blocks; the output depends on
  *    the cells alone, never on `S`;
  *  - expansion processes   = driver-side [[ExpansionState]] heaps (tiny);
  *  - one iteration         = one `collect` job of two stages over the
  *    cached cells of the previous iteration:
  *      1. one-hop allocation under the broadcast selection (phase 1), then
  *         a `partitionBy` shuffle of new vertex→partition memberships to
  *         each vertex's replica cells (row ∪ column of the grid);
  *      2. phase 1 again, membership sync + two-hop allocation + local-D_rest
  *         reports (phases 2–4); the new cells are cached and their small
  *         reports are collected and reduced on the driver (the global
  *         D_rest gather).
  *
  * Phase 1 is deterministic and only walks the edges of the selected
  * vertices, so running it in both stages is cheaper than caching its
  * output. Each iteration caches exactly one RDD, the new cells, and
  * `localCheckpoint`s it, so its lineage ends at its own disk-backed blocks;
  * the previous cells are released after the `collect`. Cached blocks that
  * memory pressure evicts spill to disk instead of being recomputed.
  *
  * Copy-on-write still matters: both stages and every task retry start
  * from the same cached parent state, so each transformation copies it
  * before writing, and the dataflow stays a pure function of its inputs.
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

  /** The partitioning. `assignments` is cached `MEMORY_AND_DISK`; its
    * lineage ends at released checkpoints, so it cannot be recomputed:
    * collect it before calling `unpersist`, not after.
    */
  final case class Result(
      assignments: RDD[(Long, Long, Int)],
      numEdges: Long,
      iterations: Int,
      partitionSizes: Array[Long])

  /** Routes cell ids to `numPartitions` slots: slot `s` holds the
    * contiguous cell range `[⌈s·A/S⌉, ⌈(s+1)·A/S⌉)`, so cell `c` goes to
    * slot `⌊c·S/A⌋`. Every slot is non-empty since `S ≤ A`.
    */
  private[repro] final case class CellSlots(numCells: Int, numPartitions: Int) extends Partitioner {
    require(numPartitions >= 1 && numPartitions <= numCells,
      s"need 1 to $numCells slots, got $numPartitions")

    def getPartition(key: Any): Int =
      (key.asInstanceOf[Int].toLong * numPartitions / numCells).toInt

    def cellsOf(slot: Int): Range = firstCell(slot) until firstCell(slot + 1)

    private def firstCell(slot: Int): Int =
      ((slot.toLong * numCells + numPartitions - 1) / numPartitions).toInt
  }

  private val SamplesPerCell = 8 // random-restart candidates reported per cell
  private val MaxIterations = 100000

  /** One allocation process: its state and the small reports, of the
    * iteration that produced it, that the driver collects.
    */
  private final case class Cell(
      state: SubGraphState,
      delta: Array[Long],                 // phase-1 + two-hop allocations
      reports: Array[(Long, Int, Int)],   // (vertex, part, local D_rest)
      samples: Array[Long])

  /** The driver's broadcast for one iteration. */
  private final case class Step(
      selOrder: Array[(Long, Int)], // selected (vertex, partition), sorted
      sizes: Array[Long],           // |E_p| at the start of the iteration
      quota: Array[Long]) {         // per-cell per-partition allocation cap

    /** Phase 1 on a copy of `parent`: the new state, its membership
      * messages and its per-partition allocation counts.
      */
    def oneHop(parent: SubGraphState): (SubGraphState, mutable.ArrayBuffer[(Long, Int)], Array[Long]) = {
      val st = parent.copy()
      val delta = new Array[Long](sizes.length)
      val msgs = st.allocateOneHop(selOrder, sizes, delta, quota)
      (st, msgs, delta)
    }
  }

  /** Partitions `edges` (canonical undirected) into `cfg.numPartitions`
    * edge sets. Returns the assignment as an RDD of (u, v, part) triples.
    */
  def partition(spark: SparkSession, edges: RDD[(Long, Long)], cfg: Config): Result =
    partitionOn(spark, edges, cfg, spark.sparkContext.defaultParallelism)

  /** [[partition]] with the cells packed into `min(A, slots)` Spark
    * partitions; the result does not depend on `slots`.
    */
  private[core] def partitionOn(spark: SparkSession, edges: RDD[(Long, Long)], cfg: Config,
                                slots: Int): Result = {
    val sc = spark.sparkContext
    val p = cfg.numPartitions
    val grid = Grid2D.forPartitions(p)
    val cellPart = CellSlots(grid.numCells, math.min(grid.numCells, slots))

    // ---- initial distribution: 2D-hash + CSR per cell (paper §4) ----
    var cells: RDD[(Int, Cell)] = edges
      .map { case (u, v) => (grid.cellOf(u, v), (u, v)) }
      .partitionBy(cellPart)
      .mapPartitionsWithIndex({ (slot, it) =>
        val byCell = it.toArray.groupBy(_._1) // arrival order within a cell
        cellPart.cellsOf(slot).iterator.map { cell =>
          val st = SubGraphState.build(cell, byCell.getOrElse(cell, Array.empty).map(_._2))
          (cell, Cell(st, Array.emptyLongArray, Array.empty, st.sampleUnallocated(SamplesPerCell, cfg.seed)))
        }
      }, preservesPartitioning = true)
      .localCheckpoint()

    val init = cells
      .map { case (_, c) => (c.state.graph.numEdges.toLong, c.samples) }
      .collect()
    val numEdges = init.map(_._1).sum
    require(numEdges > 0, "cannot partition an empty graph")
    var pool: Array[Long] = dedupPool(init.flatMap(_._2))

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

      // per-cell per-partition allocation quota for this iteration: all A
      // cells together may exceed the cap by at most ~A edges (EB ≈ α)
      val quota = Array.tabulate(p) { q =>
        if (exps(q).done) 0L
        else math.max(1L, math.ceil((cap - exps(q).size) / grid.numCells).toLong)
      }
      val step = sc.broadcast(Step(sel.sortBy(x => (x._1, x._2)).toArray, exps.map(_.size), quota))
      val iterSeed = Hashing.mix64(cfg.seed ^ (iter + 1).toLong)

      // -- phase 1 + membership sync shuffle: each (vertex, part) to the
      //    vertex's replica cells (computable from the id — no replica
      //    directory) --
      val msgs: RDD[(Int, (Long, Int))] = cells
        .flatMap { case (_, c) =>
          step.value.oneHop(c.state)._2.iterator.flatMap { m =>
            grid.replicaCells(m._1).iterator.map(r => (r, m))
          }
        }
        .partitionBy(cellPart)

      // -- phase 1 again, then phases 2–4: sync, two-hop allocation,
      //    local D_rest, samples --
      val next = cells.zipPartitions(msgs, preservesPartitioning = true) { (cellIt, msgIt) =>
        val s = step.value
        val msgsOf = msgIt.toArray.groupBy(_._1) // arrival order within a cell
        cellIt.map { case (cell, c) =>
          val (st, _, delta) = s.oneHop(c.state)
          val bp = st.applySync(msgsOf.getOrElse(cell, Array.empty).iterator.map(_._2))
          st.allocateTwoHop(bp, s.sizes, delta, s.quota)
          (cell, Cell(st, delta, st.localDrest(bp), st.sampleUnallocated(SamplesPerCell, iterSeed)))
        }
      }.localCheckpoint()

      val collected = next
        .map { case (_, c) => (c.delta, c.reports, c.samples) }
        .collect()
      cells.unpersist(blocking = false)
      cells = next
      step.unpersist(blocking = false)

      // -- driver update: sizes, termination, global D_rest, random pool --
      val drest = new mutable.HashMap[(Long, Int), Int]()
      collected.foreach { case (delta, reports, _) =>
        var q = 0
        while (q < p) {
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
      pool = dedupPool(collected.flatMap(_._3))
      iter += 1
    }

    require(totalAllocated == numEdges,
      s"Distributed NE did not converge in $MaxIterations iterations " +
      s"($totalAllocated / $numEdges edges allocated)")

    val assignments = cells.flatMap(_._2.state.assignments)
    assignments.persist(StorageLevel.MEMORY_AND_DISK)
    assignments.count()
    cells.unpersist(blocking = false)
    Result(assignments, numEdges, iter, exps.map(_.size))
  }

  /** Deduplicated random-restart candidate pool, order-stable in the input. */
  private def dedupPool(xs: Array[Long]): Array[Long] = {
    val seen = new java.util.HashSet[Long]()
    xs.filter(seen.add)
  }
}
