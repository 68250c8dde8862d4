package repro.core

import org.apache.spark.{HashPartitioner, OneToOneDependency, Partition, Partitioner, ReproShim, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.AccumulatorV2

import repro.graph.{Grid2D, Hashing, LocalGraph}

import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

/** Distributed Neighbor Expansion (the paper's contribution, §3–§5) as a
  * Spark RDD dataflow.
  *
  * Roles (see DESIGN.md §2):
  *  - allocation processes  = the `A = |P|` grid cells, 2D-hash initial
  *    distribution. Each cell's CSR slice (its `LocalGraph`) is built and
  *    cached once per call, in an `RDD[LocalGraph]`; each iteration caches
  *    only the cells' allocation states, an `RDD[SubGraphState.State]`,
  *    and a task puts a [[SubGraphState]] together from the two
  *    ([[Cells]]). Both RDDs pack the cells, in cell order, into
  *    `S = min(A, defaultParallelism)` Spark partitions ("slots", see
  *    [[CellSlots]]), so an iteration runs 2·S tasks and no shuffle; the
  *    output depends on the cells alone, never on `S`;
  *  - expansion processes   = the driver-side [[ExpansionState]]: the
  *    boundaries, the selection and the reduce of the cells' reports;
  *  - one iteration         = two single-stage jobs over the cached
  *    topology and the cached states of the previous iteration (at
  *    iteration 0, the initial states, derived from the topology):
  *      1. one-hop allocation under the driver's selection (phase 1) on a
  *         copy of each cell; the driver gathers the new vertex→partition
  *         memberships, in cell order, into the [[Step]];
  *      2. phase 1 again, membership sync + two-hop allocation + local-D_rest
  *         reports (phases 2–4); the new states are cached, and their small
  *         [[Report]]s ride back to the driver with the task results (an
  *         accumulator keyed by cell, [[CellReports]]) and are reduced
  *         there in cell order (the global D_rest gather).
  *
  * The paper sends each membership to its vertex's row ∪ column of the grid
  * ([[Grid2D.replicaCells]]). Here every cell gets the whole list with the
  * phase-2 stage's broadcast task binary (once per executor), and
  * `applySync` skips the vertices it does not hold, which leaves exactly its
  * row ∪ column messages, in source-cell order.
  *
  * The build buckets each input slice's edges by slot into primitive
  * blocks (one shuffle record per slot and slice), and each slot
  * counting-sorts its edges by cell, keeping their arrival order, before it
  * builds the cells' CSRs.
  *
  * Phase 1 is deterministic and only walks the edges of the selected
  * vertices, so running it in both jobs is cheaper than caching its
  * output. Each iteration caches exactly one RDD, the new states, and
  * `localCheckpoint`s it, so its lineage ends at its own disk-backed blocks;
  * the previous states are released after the gather (by `ReproShim`, since
  * `unpersist` logs a WARN per checkpointed RDD). The topology is
  * `localCheckpoint`ed by the build job and stays cached for the call.
  * Cached blocks that memory pressure evicts spill to disk instead of being
  * recomputed. The final states' allocation labels are the output (paper
  * §4): see [[Result]].
  *
  * Copy-on-write still matters: both jobs and every task retry start
  * from the same cached parent state, so each task copies it before
  * writing (never the topology), and the dataflow stays a pure function of
  * its inputs.
  *
  * An iteration is kept cheap to submit and to cache. Every function handed
  * to Spark is a named class, not a lambda, and the gathers go through
  * `sc.runJob`, so Spark's closure cleaner parses no bytecode (see the note
  * above [[BucketBySlot]]). A cached cell is its state alone, which holds
  * only primitive arrays (a bitset of memberships); the topology, cached
  * once, holds only primitive arrays too (a primitive id index included).
  * So the size estimate Spark makes on each cache write visits a fixed
  * number of objects; a cell's report is not cached.
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

  /** The partitioning. `assignments` reads the allocation labels of the
    * final states on the topology; both stay cached (`localCheckpoint`ed)
    * until `assignments.unpersist` releases them; it can be read any number
    * of times before that and not at all after, so collect it first.
    */
  final case class Result(
      assignments: RDD[(Long, Long, Int)],
      numEdges: Long,
      iterations: Int,
      partitionSizes: Array[Long],
      trace: IndexedSeq[IterationStats])

  /** What the driver counted in one iteration: the vertices it selected,
    * how many of them were random restarts, the heap entries it skipped
    * (stale D_rest, or the vertex left the boundary), the pops it gave back
    * because a lower-id partition had taken the vertex, and the edges the
    * cells allocated.
    */
  final case class IterationStats(selected: Int, restarts: Int, skipped: Int, givenUp: Int,
                                  allocated: Long)

  /** Routes cell ids to `numPartitions` slots: slot `s` holds the
    * contiguous cell range `[⌈s·A/S⌉, ⌈(s+1)·A/S⌉)`, so cell `c` goes to
    * slot `⌊c·S/A⌋`. Every slot is non-empty since `S ≤ A`.
    */
  private[repro] final case class CellSlots(numCells: Int, numPartitions: Int) extends Partitioner {
    require(numPartitions >= 1 && numPartitions <= numCells,
      s"need 1 to $numCells slots, got $numPartitions")

    def getPartition(key: Any): Int = slotOf(key.asInstanceOf[Int])

    def slotOf(cell: Int): Int = (cell.toLong * numPartitions / numCells).toInt

    def cellsOf(slot: Int): Range = firstCell(slot) until firstCell(slot + 1)

    private def firstCell(slot: Int): Int =
      ((slot.toLong * numCells + numPartitions - 1) / numPartitions).toInt
  }

  private val SamplesPerCell = 8 // random-restart candidates reported per cell
  private val MaxIterations = 100000

  /** What a cell tells the driver about the iteration that produced it. */
  private[core] final class Report(
      val delta: Array[Long],        // phase-1 + two-hop allocations per partition
      val drestVertex: Array[Long],  // local D_rest of the synced vertices,
      val drest: Array[Int],         //   as parallel arrays
      val dropVertex: Array[Long],   // how far each vertex's local D_rest
      val drop: Array[Int],          //   fell in this iteration
      val samples: Array[Long]) extends Serializable

  /** The reports of one phase-2 job, in cell order. Each phase-2 task adds
    * its cells' reports; they ride back with the task result, and the
    * driver merges each successful task's once. Keyed by cell, so a task
    * run twice adds nothing new.
    */
  private final class CellReports extends AccumulatorV2[(Int, Report), Array[Report]] {
    private val byCell = new java.util.TreeMap[Int, Report]()
    def isZero: Boolean = byCell.isEmpty
    def copy(): CellReports = { val c = new CellReports; c.byCell.putAll(byCell); c }
    def reset(): Unit = byCell.clear()
    def add(r: (Int, Report)): Unit = byCell.put(r._1, r._2)
    def merge(other: AccumulatorV2[(Int, Report), Array[Report]]): Unit =
      byCell.putAll(other.asInstanceOf[CellReports].byCell)
    def value: Array[Report] = byCell.values.toArray(new Array[Report](0))
  }

  /** The driver's selection for one iteration and, for phase 2, phase 1's
    * new memberships, shipped with the stage's functions (Spark broadcasts
    * each stage's task binary).
    */
  private[core] final case class Step(
      selVertex: Array[Long], selPart: Array[Int], // selected (vertex, partition), sorted
      sizes: Array[Long],       // |E_p| at the start of the iteration
      quota: Array[Long],       // per-cell per-partition allocation cap
      syncVertex: Array[Long] = Array.emptyLongArray, // phase 1's new
      syncPart: Array[Int] = Array.emptyIntArray) {   //   memberships, by cell

    /** Phase 1 on `st`, a task's own copy of a cell: its log (new
      * memberships, allocated edge ends) and its per-partition allocation
      * counts (`delta`).
      */
    def oneHop(st: SubGraphState): (SubGraphState.Log, Array[Long]) = {
      val delta = new Array[Long](sizes.length)
      val log = new SubGraphState.Log
      st.allocateOneHop(selVertex, selPart, sizes, delta, quota, log)
      (log, delta)
    }
  }

  // ---- the functions handed to Spark ----
  //
  // Each is a named class or object, never a lambda. Spark's ClosureCleaner
  // reads and parses the bytecode of the class that declares every lambda it
  // is handed; a class that is not a lambda passes through unread. The
  // gathers call `sc.runJob` with a `(TaskContext, Iterator) => U` of their
  // own. Do not bring back `collect()` or `count()`: they hand the cleaner a
  // lambda declared in `RDD`, and their runJob overload wraps it in another
  // declared in `SparkContext`, so each call parses both of Spark's largest
  // classes. Profiled on 4 cores, that parsing took more driver time per
  // iteration than all of the driver's own work. A job's per-cell function
  // rides inside its `Cells` RDD, which the cleaner never sees.

  /** The edges of one input slice that go to one slot, in input order: each
    * edge's cell and ends as parallel primitive arrays.
    */
  private final class EdgeBlock(val cell: Array[Int], val src: Array[Long], val dst: Array[Long])
      extends Serializable

  /** 2D-hash initial distribution: one input slice's edges bucketed by slot,
    * one block per non-empty slot, keyed by the slot.
    */
  private final class BucketBySlot(grid: Grid2D, slots: CellSlots)
      extends (Iterator[(Long, Long)] => Iterator[(Int, EdgeBlock)]) with Serializable {
    def apply(edges: Iterator[(Long, Long)]): Iterator[(Int, EdgeBlock)] = {
      val n = slots.numPartitions
      val cell = Array.fill(n)(new ArrayBuilder.ofInt)
      val src = Array.fill(n)(new ArrayBuilder.ofLong)
      val dst = Array.fill(n)(new ArrayBuilder.ofLong)
      while (edges.hasNext) {
        val e = edges.next()
        val c = grid.cellOf(e._1, e._2)
        val slot = slots.slotOf(c)
        cell(slot) += c; src(slot) += e._1; dst(slot) += e._2
      }
      (0 until n).iterator.filter(cell(_).length > 0)
        .map(slot => (slot, new EdgeBlock(cell(slot).result(), src(slot).result(), dst(slot).result())))
    }
  }

  /** The topology of one slot's cells, in cell order: the slot's edges
    * counting-sorted by cell, each cell's edges in their arrival order, and
    * a CSR per cell.
    */
  private final class BuildTopology(slots: CellSlots)
      extends ((Int, Iterator[(Int, EdgeBlock)]) => Iterator[LocalGraph]) with Serializable {
    def apply(slot: Int, in: Iterator[(Int, EdgeBlock)]): Iterator[LocalGraph] = {
      val blocks = in.map(_._2).toArray
      val cells = slots.cellsOf(slot)
      val count = new Array[Int](cells.length)
      for (b <- blocks; c <- b.cell) count(c - cells.start) += 1
      val src = count.map(new Array[Long](_))
      val dst = count.map(new Array[Long](_))
      val filled = new Array[Int](count.length)
      for (b <- blocks) {
        var i = 0
        while (i < b.cell.length) {
          val k = b.cell(i) - cells.start
          src(k)(filled(k)) = b.src(i); dst(k)(filled(k)) = b.dst(i); filled(k) += 1
          i += 1
        }
      }
      Iterator.tabulate(count.length)(k => LocalGraph.build(src(k), dst(k)))
    }
  }

  /** The cells of one job, slot by slot: each cell of the cached topology
    * put together with a copy of its cached state from the previous
    * iteration (its initial state when `states` is null), then mapped by
    * `f`. Once checkpointed, it drops its parents and `f`, so a cached
    * generation of states keeps no lineage but its own blocks.
    */
  private final class Cells[T: ClassTag](
      private var topology: RDD[LocalGraph],
      private var states: RDD[SubGraphState.State],
      slots: CellSlots,
      numPartitions: Int,
      private var f: SubGraphState => T)
      extends RDD[T](topology.context,
        new OneToOneDependency(topology) :: Option(states).map(new OneToOneDependency(_)).toList) {

    override def compute(split: Partition, ctx: TaskContext): Iterator[T] = {
      val graphs = topology.iterator(split, ctx)
      val cells =
        if (states == null)
          slots.cellsOf(split.index).iterator.zip(graphs).map { case (c, g) => SubGraphState.initial(c, numPartitions, g) }
        else graphs.zip(states.iterator(split, ctx)).map { case (g, st) => SubGraphState.of(g, st) }
      cells.map(f)
    }

    override protected def getPartitions: Array[Partition] = topology.partitions

    override def clearDependencies(): Unit = {
      super.clearDependencies()
      topology = null
      states = null
      f = null
    }
  }

  /** Each slot's results, in cell order. */
  private final class Gather[T: ClassTag]
      extends ((TaskContext, Iterator[T]) => Array[T]) with Serializable {
    def apply(ctx: TaskContext, it: Iterator[T]): Array[T] = it.toArray
  }

  /** The edge count and restart samples of an initial cell. */
  private final class InitialReport(seed: Long) extends (SubGraphState => (Long, Array[Long])) with Serializable {
    def apply(st: SubGraphState): (Long, Array[Long]) =
      (st.graph.numEdges.toLong, st.sampleUnallocated(SamplesPerCell, seed))
  }

  /** Phase 1 on a cell: its new memberships. */
  private final class OneHop(step: Step)
      extends (SubGraphState => (Array[Long], Array[Int])) with Serializable {
    def apply(st: SubGraphState): (Array[Long], Array[Int]) = {
      val log = step.oneHop(st)._1
      (log.joined.result(), log.joinedPart.result())
    }
  }

  /** Phase 1 again, then phases 2–4: sync, two-hop, local D_rest, samples;
    * the cell's report goes to `reports`, its new state is the result.
    */
  private final class NextState(step: Step, iterSeed: Long, reports: CellReports)
      extends (SubGraphState => SubGraphState.State) with Serializable {
    def apply(st: SubGraphState): SubGraphState.State = {
      val (log, delta) = step.oneHop(st)
      val bp = st.applySync(step.syncVertex, step.syncPart)
      st.allocateTwoHop(bp, step.sizes, delta, step.quota, log)
      val (dv, d) = st.localDrest(bp)
      val (xv, x) = st.drestDrops(log)
      reports.add((st.cellId, new Report(delta, dv, d, xv, x, st.sampleUnallocated(SamplesPerCell, iterSeed))))
      st.state
    }
  }

  /** Computes (and so caches) one slot's states. */
  private object Materialize
      extends ((TaskContext, Iterator[SubGraphState.State]) => Unit) with Serializable {
    def apply(ctx: TaskContext, it: Iterator[SubGraphState.State]): Unit = it.foreach(_ => ())
  }

  /** `Result.assignments`: read from the cached topology and final states
    * on every pass.
    */
  private final class Assignments(topology: RDD[LocalGraph], states: RDD[SubGraphState.State])
      extends RDD[(Long, Long, Int)](topology.context,
        List(new OneToOneDependency(topology), new OneToOneDependency(states))) {
    override def compute(split: Partition, ctx: TaskContext): Iterator[(Long, Long, Int)] =
      topology.iterator(split, ctx).zip(states.iterator(split, ctx))
        .flatMap { case (g, st) => SubGraphState.of(g, st).assignments }

    override protected def getPartitions: Array[Partition] = topology.partitions

    override def unpersist(blocking: Boolean): this.type = {
      ReproShim.release(topology, blocking)
      ReproShim.release(states, blocking)
      super.unpersist(blocking)
    }
  }

  /** Partitions `edges` into `cfg.numPartitions` edge sets. Returns the
    * assignment as an RDD of (u, v, part) triples. Each input pair is one
    * undirected edge: self-loops, repeated pairs and either orientation are
    * accepted, and every occurrence comes back once, as given.
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

    // ---- initial distribution: 2D-hash + CSR per cell (paper §4), once ----
    val topology: RDD[LocalGraph] = edges
      .mapPartitions(new BucketBySlot(grid, cellPart))
      .partitionBy(new HashPartitioner(cellPart.numPartitions)) // slot s < S goes to partition s
      .mapPartitionsWithIndex(new BuildTopology(cellPart))
      .localCheckpoint()
    def cells[T: ClassTag](states: RDD[SubGraphState.State], f: SubGraphState => T): Cells[T] =
      new Cells(topology, states, cellPart, p, f)

    // the build job: caches the topology, reports on the initial states
    val init = sc.runJob(cells(null, new InitialReport(cfg.seed)), new Gather[(Long, Array[Long])]).flatten
    val numEdges = init.map(_._1).sum
    require(numEdges > 0, "cannot partition an empty graph")
    val exps = new ExpansionState(cfg, numEdges, grid.numCells, init.flatMap(_._2))
    var states: RDD[SubGraphState.State] = null // the initial states, not cached
    var iter = 0

    while (exps.remaining > 0 && iter < MaxIterations) {
      val step = exps.select()
      val iterSeed = Hashing.mix64(cfg.seed ^ (iter + 1).toLong)

      // -- phase 1: the new memberships of every cell, in cell order --
      val joined = sc.runJob(cells(states, new OneHop(step)), new Gather[(Array[Long], Array[Int])]).flatten
      val synced = step.copy(syncVertex = joined.flatMap(_._1), syncPart = joined.flatMap(_._2))

      // -- phase 1 again, then phases 2–4; the reports come back by cell --
      val reports = new CellReports
      sc.register(reports)
      val next = cells(states, new NextState(synced, iterSeed, reports)).localCheckpoint()
      sc.runJob(next, Materialize)
      if (states != null) ReproShim.release(states, blocking = false)
      states = next
      val byCell = reports.value
      require(byCell.length == grid.numCells, s"${byCell.length} of ${grid.numCells} cells reported")
      exps.absorb(synced, byCell)
      iter += 1
    }

    require(exps.remaining == 0,
      s"Distributed NE did not converge in $MaxIterations iterations " +
      s"(${numEdges - exps.remaining} / $numEdges edges allocated)")

    Result(new Assignments(topology, states), numEdges, iter, exps.partitionSizes, exps.iterationStats)
  }
}
