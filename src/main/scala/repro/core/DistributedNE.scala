package repro.core

import org.apache.spark.{HashPartitioner, OneToOneDependency, Partition, Partitioner, ReproShim, SimpleFutureAction,
  SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.SparkListenerEvent
import org.apache.spark.sql.SparkSession

import repro.graph.{Grid2D, Hashing, LocalGraph}

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}
import scala.util.{Failure, Success}

/** Distributed Neighbor Expansion (the paper's contribution, §3–§5) as a
  * Spark RDD dataflow.
  *
  * Roles (see DESIGN.md §2):
  *  - allocation processes  = the `A = |P|` grid cells, 2D-hash initial
  *    distribution. The cells are packed, in cell order, into
  *    `S = min(A, defaultParallelism, the tasks the cluster runs at once)`
  *    Spark partitions ("slots", see [[CellSlots]]); the output depends on
  *    the cells alone, never on `S`. Each cell's CSR slice (its
  *    `LocalGraph`) is built and cached once per call, in an
  *    `RDD[LocalGraph]` (the build job);
  *  - expansion processes   = the driver-side [[ExpansionState]]: the
  *    boundaries, the selection and the reduce of the cells' reports;
  *  - the expansion loop    = one more job, one barrier stage of S
  *    long-lived tasks ([[Loop]]). Each task derives its cells'
  *    [[SubGraphState]]s from the cached topology and keeps them in memory
  *    for the whole loop. Each iteration it trades messages with the
  *    driver's [[Frontier]] through a per-attempt RPC mailbox:
  *      1. it asks for the iteration's [[Step]] (the selection), sending
  *         its cells' [[Report]]s on the previous iteration, which the
  *         driver reduces in cell order (the global D_rest gather);
  *      2. it runs one-hop allocation (phase 1) in place;
  *      3. it sends its cells' new vertex→partition memberships and gets
  *         back the whole list, in cell order;
  *      4. it runs membership sync, two-hop allocation and the local-D_rest
  *         reports (phases 2–4) in place.
  *    When every edge is allocated, each task yields its cells' final
  *    states, which are cached (`localCheckpoint`ed).
  *
  * The paper sends each membership to its vertex's row ∪ column of the grid
  * ([[Grid2D.replicaCells]]). Here every slot gets the whole list, and
  * `applySync` skips the vertices a cell does not hold, which leaves exactly
  * its row ∪ column messages, in source-cell order.
  *
  * The build buckets each input slice's edges by slot into primitive
  * blocks (one shuffle record per slot and slice), and each slot
  * counting-sorts its edges by cell, keeping their arrival order, before it
  * builds the cells' CSRs. The topology is `localCheckpoint`ed by the build
  * job and stays cached for the call; the final states' allocation labels
  * are the output (paper §4): see [[Result]]. Cached blocks that memory
  * pressure evicts spill to disk instead of being recomputed.
  *
  * Barrier mode only gang-schedules the loop: its S tasks start together,
  * and a failed one fails them all. Spark does not rerun a failed barrier
  * result stage, so the driver runs the loop job again, up to the number of
  * attempts the scheduler gives a task; the new tasks replay the iterations
  * the driver has logged, and determinism makes the replay equal to the
  * first run. A call that fails or is cancelled waits for its tasks to end
  * and releases its mailbox and cached blocks before it throws.
  *
  * Every function handed to Spark is a named class, not a lambda, and the
  * build's gather goes through `sc.runJob`, so Spark's closure cleaner
  * parses no bytecode (see the note above [[BucketBySlot]]).
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
    * because a lower-id partition had taken the vertex, the edges the
    * cells allocated, and the length of the membership list it synced.
    */
  final case class IterationStats(selected: Int, restarts: Int, skipped: Int, givenUp: Int,
                                  allocated: Long, synced: Int)

  /** Posted on Spark's listener bus as each iteration's memberships are
    * synced, so listeners can follow a call's progress.
    */
  final case class IterationSynced(iteration: Int, memberships: Int) extends SparkListenerEvent

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
  private val WaitSliceMs = 50L  // how often a waiting task or driver checks for an end
  private val TaskEndWaitMs = 10000L

  /** What a cell tells the driver about the iteration that produced it. */
  private[core] final class Report(
      val delta: Array[Long],        // phase-1 + two-hop allocations per partition
      val drestVertex: Array[Long],  // local D_rest of the synced vertices,
      val drest: Array[Int],         //   as parallel arrays
      val dropVertex: Array[Long],   // how far each vertex's local D_rest
      val drop: Array[Int],          //   fell in this iteration
      val samples: Array[Long]) extends Serializable

  /** The driver's selection for one iteration and, once synced, phase 1's
    * new memberships of every cell, in cell order.
    */
  private[core] final case class Step(
      selVertex: Array[Long], selPart: Array[Int], // selected (vertex, partition), sorted
      sizes: Array[Long],       // |E_p| at the start of the iteration
      quota: Array[Long],       // per-cell per-partition allocation cap
      syncVertex: Array[Long] = Array.emptyLongArray, // phase 1's new
      syncPart: Array[Int] = Array.emptyIntArray) {   //   memberships, by cell

    /** Phase 1 on `st`, in place: its log (new memberships, allocated edge
      * ends) and its per-partition allocation counts (`delta`).
      */
    def oneHop(st: SubGraphState): (SubGraphState.Log, Array[Long]) = {
      val delta = new Array[Long](sizes.length)
      val log = new SubGraphState.Log
      st.allocateOneHop(selVertex, selPart, sizes, delta, quota, log)
      (log, delta)
    }
  }

  // ---- what a loop task and the driver say to each other ----

  /** A slot asks for iteration `iteration`'s [[Step]], sending its cells'
    * reports on the iteration before, in cell order (none before the
    * first). The answer is the step, or [[Done]].
    */
  private final case class Next(slot: Int, iteration: Int, reports: Array[Report])

  /** A slot sends its cells' new memberships of iteration `iteration`, in
    * cell order. The answer is the synced step, which holds every cell's.
    */
  private final case class Joined(slot: Int, iteration: Int, vertex: Array[Long], part: Array[Int])

  /** Every edge is allocated: the slot yields its final states. */
  private case object Done

  private[core] def mailboxName(loopId: Int): String = s"DistributedNE.Loop-$loopId"

  // ---- the functions handed to Spark ----
  //
  // Each is a named class or object, never a lambda. Spark's ClosureCleaner
  // reads and parses the bytecode of the class that declares every lambda it
  // is handed; a class that is not a lambda passes through unread. The
  // build's gather calls `sc.runJob` with a `(TaskContext, Iterator) => U` of
  // its own, and the loop job is `sc.submitJob` with a named function. Do not
  // bring back `collect()` or `count()`: they hand the cleaner a lambda
  // declared in `RDD`, and their runJob overload wraps it in another declared
  // in `SparkContext`, so each call parses both of Spark's largest classes.

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

  /** The edge count and restart samples of each of a slot's initial cells. */
  private final class InitialReport(slots: CellSlots, numPartitions: Int, seed: Long)
      extends ((TaskContext, Iterator[LocalGraph]) => Array[(Long, Array[Long])]) with Serializable {
    def apply(ctx: TaskContext, graphs: Iterator[LocalGraph]): Array[(Long, Array[Long])] =
      slots.cellsOf(ctx.partitionId()).iterator.zip(graphs).map { case (c, g) =>
        (g.numEdges.toLong, SubGraphState.initial(c, numPartitions, g).sampleUnallocated(SamplesPerCell, seed))
      }.toArray
  }

  /** The expansion loop, one barrier task per slot: the slot's cells, kept
    * in memory from their initial states to their final ones, which are the
    * task's output. Each iteration is one exchange with the driver's
    * [[Frontier]] for the step, one for the synced memberships. Once
    * checkpointed, it drops its parent.
    */
  private final class Loop(private var topology: RDD[LocalGraph], slots: CellSlots, numPartitions: Int,
                           seed: Long)
      extends RDD[SubGraphState.State](topology.context, List(new OneToOneDependency(topology))) {

    override protected lazy val isBarrier_ : Boolean = true

    override def compute(split: Partition, ctx: TaskContext): Iterator[SubGraphState.State] = {
      val slot = split.index
      val driver = new ReproShim.MailboxClient(mailboxName(id), WaitSliceMs)
      val cells = slots.cellsOf(slot).iterator.zip(topology.iterator(split, ctx))
        .map { case (c, g) => SubGraphState.initial(c, numPartitions, g) }.toArray
      var iteration = 0
      var answer = driver.ask[AnyRef](Next(slot, 0, Array.empty))
      while (answer != Done) {
        val step = answer.asInstanceOf[Step]
        val oneHop = cells.map(step.oneHop)
        val synced = driver.ask[Step](Joined(slot, iteration,
          oneHop.flatMap(_._1.joined.result()), oneHop.flatMap(_._1.joinedPart.result())))
        val iterSeed = Hashing.mix64(seed ^ (iteration + 1).toLong)
        val reports = cells.indices.map { k =>
          val st = cells(k)
          val (log, delta) = oneHop(k)
          val bp = st.applySync(synced.syncVertex, synced.syncPart)
          st.allocateTwoHop(bp, synced.sizes, delta, synced.quota, log)
          val (dv, d) = st.localDrest(bp)
          val (xv, x) = st.drestDrops(log)
          new Report(delta, dv, d, xv, x, st.sampleUnallocated(SamplesPerCell, iterSeed))
        }.toArray
        iteration += 1
        answer = driver.ask[AnyRef](Next(slot, iteration, reports))
      }
      cells.iterator.map(_.state)
    }

    override protected def getPartitions: Array[Partition] = topology.partitions

    override def clearDependencies(): Unit = {
      super.clearDependencies()
      topology = null
    }
  }

  /** Runs a loop task to its end; its states are cached on the way. */
  private object RunLoop extends (Iterator[SubGraphState.State] => Unit) with Serializable {
    def apply(states: Iterator[SubGraphState.State]): Unit = states.foreach(_ => ())
  }

  /** The driver's side of the loop: answers the slots' asks. At the
    * frontier, the first iteration no step has been synced for, it waits
    * for the asks of all S slots, then answers them all: for the step, it
    * absorbs their reports in cell order and selects; for the sync, it
    * concatenates their memberships in slot (so cell) order and logs the
    * synced step. A slot behind the frontier, which replays a failed
    * attempt, is answered from the log.
    */
  private final class Frontier(sc: SparkContext, exps: ExpansionState, numCells: Int, numSlots: Int) {
    private val log = ArrayBuffer.empty[Step] // the synced steps, by iteration
    private var current: Step = null          // the frontier's step, selected, not synced yet
    private var done = false
    private val waiting = new Array[ReproShim.Ask](numSlots)
    private var arrived = 0

    def iterations: Int = log.length

    /** Forgets the asks of a failed attempt. */
    def restart(): Unit = { waiting.indices.foreach(waiting(_) = null); arrived = 0 }

    def handle(ask: ReproShim.Ask): Unit = ask.message match {
      case Next(_, i, _) if i < log.length => ask.reply(log(i))
      case Next(_, _, _) if done => ask.reply(Done)
      case Next(_, _, _) if current != null => ask.reply(current)
      case Next(slot, i, _) => gather(slot, i, ask) { asks =>
        if (i > 0) {
          val reports = asks.flatMap(_.message.asInstanceOf[Next].reports)
          require(reports.length == numCells, s"${reports.length} of $numCells cells reported")
          exps.absorb(log(i - 1), reports)
        }
        if (exps.remaining == 0) { done = true; Done }
        else {
          require(i < MaxIterations, s"Distributed NE did not converge in $MaxIterations iterations " +
            s"(${exps.partitionSizes.sum} edges allocated, ${exps.remaining} left)")
          current = exps.select()
          current
        }
      }
      case Joined(_, i, _, _) if i < log.length => ask.reply(log(i))
      case Joined(slot, i, _, _) => gather(slot, i, ask) { asks =>
        require(current != null, s"iteration $i's memberships came before its step")
        val joined = asks.map(_.message.asInstanceOf[Joined])
        val synced = current.copy(syncVertex = joined.flatMap(_.vertex), syncPart = joined.flatMap(_.part))
        log += synced
        current = null
        ReproShim.post(sc, IterationSynced(i, synced.syncVertex.length))
        synced
      }
    }

    /** Holds `ask` until every slot has asked at the frontier, then answers
      * all with `answer` of their asks, in slot order. A slot's later ask
      * replaces its earlier one, whose task can only be a failed attempt's.
      */
    private def gather(slot: Int, i: Int, ask: ReproShim.Ask)(answer: Array[ReproShim.Ask] => AnyRef): Unit = {
      require(i == log.length, s"slot $slot asked for iteration $i at iteration ${log.length}")
      if (waiting(slot) == null) arrived += 1
      waiting(slot) = ask
      if (arrived == numSlots) {
        val reply = answer(waiting)
        waiting.foreach(_.reply(reply))
        restart()
      }
    }
  }

  /** `Result.assignments`: read from the cached topology and final states
    * on every pass. Not a barrier RDD, though the states come from one, so
    * any job may read it.
    */
  private final class Assignments(topology: RDD[LocalGraph], states: RDD[SubGraphState.State])
      extends RDD[(Long, Long, Int)](topology.context,
        List(new OneToOneDependency(topology), new OneToOneDependency(states))) {

    override protected lazy val isBarrier_ : Boolean = false

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

  /** [[partition]] with the cells packed into at most `slots` Spark
    * partitions; the result does not depend on `slots`.
    */
  private[core] def partitionOn(spark: SparkSession, edges: RDD[(Long, Long)], cfg: Config,
                                slots: Int): Result = {
    val sc = spark.sparkContext
    val p = cfg.numPartitions
    val grid = Grid2D.forPartitions(p)
    val gang = math.max(1, math.min(slots, ReproShim.maxConcurrentTasks(sc)))
    val cellPart = CellSlots(grid.numCells, math.min(grid.numCells, gang))

    // ---- initial distribution: 2D-hash + CSR per cell (paper §4), once ----
    val topology: RDD[LocalGraph] = edges
      .mapPartitions(new BucketBySlot(grid, cellPart))
      .partitionBy(new HashPartitioner(cellPart.numPartitions)) // slot s < S goes to partition s
      .mapPartitionsWithIndex(new BuildTopology(cellPart))
      .localCheckpoint()
    try {
      // the build job: caches the topology, reports on the initial states
      val init = sc.runJob(topology, new InitialReport(cellPart, p, cfg.seed)).flatten
      val numEdges = init.map(_._1).sum
      require(numEdges > 0, "cannot partition an empty graph")
      val exps = new ExpansionState(cfg, numEdges, grid.numCells, init.flatMap(_._2))
      val frontier = new Frontier(sc, exps, grid.numCells, cellPart.numPartitions)

      // the loop job; a failed attempt is run again, and replays the log
      val attempts = ReproShim.taskAttempts(sc)
      var states: Loop = null
      var attempt = 1
      while (states == null) {
        val loop = new Loop(topology, cellPart, p, cfg.seed)
        loop.setName("DistributedNE.Loop").localCheckpoint()
        if (runLoop(sc, loop, frontier, retry = attempt < attempts)) states = loop
        attempt += 1
      }
      require(exps.remaining == 0, s"${exps.remaining} of $numEdges edges left unallocated")
      Result(new Assignments(topology, states), numEdges, frontier.iterations, exps.partitionSizes,
        exps.iterationStats)
    } catch {
      case e: Throwable =>
        ReproShim.release(topology, blocking = false)
        throw e
    }
  }

  /** One attempt of the loop job: submits it and answers its tasks until
    * it ends. Returns whether it succeeded; false if a task failed and
    * `retry` allows another attempt. Throws on any other failure, after
    * its tasks have ended. Either way, its mailbox is gone on return, and
    * so are its cached blocks unless it succeeded.
    */
  private def runLoop(sc: SparkContext, loop: Loop, frontier: Frontier, retry: Boolean): Boolean = {
    val mailbox = new ReproShim.Mailbox(sc, mailboxName(loop.id))
    var job: SimpleFutureAction[Unit] = null
    var succeeded = false
    try {
      frontier.restart()
      job = sc.submitJob(loop, RunLoop, loop.partitions.indices, (_: Int, _: Unit) => (), ())
      while (!job.isCompleted) {
        val ask = mailbox.poll(WaitSliceMs)
        if (ask != null) frontier.handle(ask)
      }
      job.value.get match {
        case Success(_) =>
          ReproShim.checkpoint(loop)
          succeeded = true
          true
        case Failure(e) if retry && ReproShim.stageFailed(e) => false
        case Failure(e) => throw e
      }
    } finally {
      if (!succeeded) {
        if (job != null) {
          job.cancel()
          awaitTasks(sc, job)
        }
        ReproShim.release(loop, blocking = false)
      }
      mailbox.close()
    }
  }

  /** Waits, up to [[TaskEndWaitMs]], until no task of `job` is running. */
  private def awaitTasks(sc: SparkContext, job: SimpleFutureAction[_]): Unit = {
    val deadline = System.nanoTime() + TaskEndWaitMs * 1000000L
    val tracker = sc.statusTracker
    def running: Int = job.jobIds.flatMap(tracker.getJobInfo(_)).flatMap(_.stageIds)
      .flatMap(tracker.getStageInfo(_)).map(_.numActiveTasks).sum
    ReproShim.drainListenerBus(sc, TaskEndWaitMs)
    while (running > 0 && System.nanoTime() < deadline) Thread.sleep(WaitSliceMs / 5)
  }
}
