package repro.core

import org.apache.spark.{ReproShim, SparkEnv, SparkException, StageShim, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerEvent, SparkListenerJobStart,
  SparkListenerStageSubmitted, SparkListenerTaskEnd, SparkListenerTaskStart, StageInfo}
import org.apache.spark.storage.RDDBlockId
import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalMetrics}
import repro.theory.Bounds

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import scala.jdk.CollectionConverters._

class DistributedNESpec extends SparkSpec {

  private def rddOf(edges: Array[(Long, Long)]): RDD[(Long, Long)] =
    spark.sparkContext.parallelize(edges.toSeq, 4)

  private def runOn(edges: Array[(Long, Long)], p: Int,
                    lambda: Double = 0.1, seed: Long = 42L): (Array[(Long, Long, Int)], DistributedNE.Result) = {
    val res = DistributedNE.partition(spark, rddOf(edges),
      DistributedNE.Config(numPartitions = p, lambda = lambda, seed = seed))
    val triples = res.assignments.collect().sortBy(t => (t._1, t._2))
    res.assignments.unpersist(blocking = false)
    (triples, res)
  }

  private def checkComplete(edges: Array[(Long, Long)], triples: Array[(Long, Long, Int)], p: Int): Unit = {
    assert(triples.length == edges.length, "every edge must be allocated exactly once")
    assert(triples.map(t => (t._1, t._2)).toSet == edges.toSet)
    triples.foreach(t => assert(t._3 >= 0 && t._3 < p, s"partition out of range: $t"))
  }

  test("single partition puts everything in partition 0 with RF 1") {
    val (triples, _) = runOn(TestGraphs.k4, p = 1)
    checkComplete(TestGraphs.k4, triples, 1)
    assert(LocalMetrics.replicationFactor(triples) == 1.0)
  }

  test("completeness on a path graph, P=2") {
    val edges = TestGraphs.path(20)
    val (triples, _) = runOn(edges, 2)
    checkComplete(edges, triples, 2)
  }

  test("completeness when partitions outnumber edges") {
    val edges = TestGraphs.path(3)
    val (triples, _) = runOn(edges, 8)
    checkComplete(edges, triples, 8)
  }

  test("completeness on two disconnected triangles (random restarts needed)") {
    val (triples, _) = runOn(TestGraphs.twoTriangles, 2)
    checkComplete(TestGraphs.twoTriangles, triples, 2)
  }

  test("completeness and range on a skewed graph, several partition counts") {
    val edges = TestGraphs.skewed(400, 2500)
    for (p <- Seq(2, 4, 8)) {
      val (triples, _) = runOn(edges, p)
      checkComplete(edges, triples, p)
    }
  }

  test("Theorem 1: RF is bounded by (|E|+|V|+|P|)/|V| on diverse graphs") {
    val graphs: Seq[(String, Array[(Long, Long)])] = Seq(
      "k4" -> TestGraphs.k4,
      "star" -> TestGraphs.star(30),
      "ring" -> TestGraphs.ring(40),
      "skewed" -> TestGraphs.skewed(300, 1500),
      "twoTriangles" -> TestGraphs.twoTriangles,
    )
    for ((name, edges) <- graphs; p <- Seq(2, 4)) {
      val (triples, _) = runOn(edges, p)
      val rf = LocalMetrics.replicationFactor(triples)
      val nV = LocalMetrics.numVertices(edges)
      val ub = Bounds.theorem1(edges.length, nV, p)
      assert(rf <= ub + 1e-9, s"$name p=$p: RF $rf exceeds Theorem-1 bound $ub")
    }
  }

  test("ringPlusClique matches Theorem 2's construction sizes") {
    for (n <- Seq(3, 4, 6)) {
      val edges = TestGraphs.ringPlusClique(n)
      edges.foreach { case (u, v) => assert(u < v, s"non-canonical edge ($u,$v)") }
      assert(edges.toSet.size == edges.length, "duplicate edges")
      val ringSize = n * (n - 1) / 2 // = the clique's edge count
      assert(edges.length == 2 * ringSize, s"n=$n: got ${edges.length} edges")
      val verts = edges.flatMap { case (u, v) => Seq(u, v) }.distinct
      assert(verts.length == n + ringSize)
    }
  }

  test("Theorem 2 construction (ring+clique) also respects the bound") {
    val edges = TestGraphs.ringPlusClique(6)
    val (triples, _) = runOn(edges, 4)
    checkComplete(edges, triples, 4)
    val ub = Bounds.theorem1(edges.length, LocalMetrics.numVertices(edges), 4)
    assert(LocalMetrics.replicationFactor(triples) <= ub + 1e-9)
  }

  test("edge balance stays near alpha on a mid-size RMAT graph") {
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val (triples, _) = runOn(edges, 4)
    checkComplete(edges, triples, 4)
    val eb = LocalMetrics.edgeBalance(triples)
    assert(eb <= 1.3, s"edge balance $eb too far above alpha=1.1")
  }

  test("quality: beats random hashing on a skewed RMAT graph") {
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val (triples, _) = runOn(edges, 8)
    val rfNE = LocalMetrics.replicationFactor(triples)
    val rfRand = LocalMetrics.replicationFactor(
      TestGraphs.triples(edges, TestGraphs.randomAssign(edges, 8)))
    assert(rfNE < rfRand, s"D.NE RF $rfNE should beat random RF $rfRand")
  }

  test("quality: near-perfect on a road lattice") {
    val edges = GraphGen.roadLattice(spark, 40, 40, seed = 3).collect()
    val (triples, _) = runOn(edges, 4)
    val rf = LocalMetrics.replicationFactor(triples)
    assert(rf < 1.3, s"road-lattice RF should approach 1, got $rf")
  }

  test("deterministic: same seed, same partitioning") {
    val edges = TestGraphs.skewed(200, 1000)
    val (a, _) = runOn(edges, 4, seed = 7)
    val (b, _) = runOn(edges, 4, seed = 7)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds may differ (seed actually feeds the run)") {
    val edges = TestGraphs.skewed(200, 1000)
    val (a, _) = runOn(edges, 4, seed = 1)
    val (b, _) = runOn(edges, 4, seed = 2)
    // not a strict requirement, but with 1000 edges a collision of the full
    // assignment would indicate the seed is ignored
    assert(a.toSeq != b.toSeq)
  }

  test("multi-expansion: larger lambda takes fewer iterations (Fig. 6 trend)") {
    val edges = GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect()
    val (_, slow) = runOn(edges, 4, lambda = 0.02)
    val (_, fast) = runOn(edges, 4, lambda = 1.0)
    assert(fast.iterations < slow.iterations,
      s"lambda=1.0 (${fast.iterations} iters) must beat lambda=0.02 (${slow.iterations})")
    assert(fast.iterations <= 60, s"lambda=1.0 should converge quickly, took ${fast.iterations}")
  }

  test("evicting memory-only cached blocks mid-run leaves the output unchanged") {
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val (expected, _) = runOn(edges, 4, lambda = 0.05)
    val sc = spark.sparkContext
    // at the start of the loop job, the second job of a call, drops the
    // blocks memory pressure would drop: those of cached RDDs whose storage
    // level has no disk tier
    val fired = new AtomicInteger
    val evictor = new SparkListener {
      private var jobs = 0
      override def onJobStart(start: SparkListenerJobStart): Unit = {
        jobs += 1
        if (jobs == 2) {
          fired.incrementAndGet()
          val memoryOnly = sc.getPersistentRDDs.collect {
            case (id, rdd) if !rdd.getStorageLevel.useDisk => id
          }.toSet
          val bm = SparkEnv.get.blockManager
          bm.getMatchingBlockIds {
            case RDDBlockId(id, _) => memoryOnly(id)
            case _ => false
          }.foreach(bm.removeBlock(_))
        }
      }
    }
    sc.addSparkListener(evictor)
    try {
      val (evicted, _) = runOn(edges, 4, lambda = 0.05)
      assert(evicted.toSeq == expected.toSeq)
      assert(fired.get == 1, "the eviction did not fire at the loop job's start")
    } finally sc.removeSparkListener(evictor)
  }

  test("output does not depend on how many Spark partitions hold the cells") {
    val rmat = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 77).collect().sorted
    // path(3) has fewer edges than the 8 cells, so some slots hold empty cells
    for ((name, edges) <- Seq("rmat" -> rmat, "path(3)" -> TestGraphs.path(3))) {
      def triplesOn(slots: Int): Seq[(Long, Long, Int)] = {
        val res = DistributedNE.partitionOn(spark, rddOf(edges), DistributedNE.Config(8), slots)
        val triples = res.assignments.collect().sortBy(t => (t._1, t._2))
        res.assignments.unpersist(blocking = false)
        triples.toSeq
      }
      val expected = triplesOn(8)
      checkComplete(edges, expected.toArray, 8)
      // 3 slots split 8 cells unevenly; 16 is clamped to one slot per cell
      for (slots <- Seq(1, 3, 16))
        assert(triplesOn(slots) == expected, s"$name: $slots slots changed the output")
    }
  }

  test("no stage after the initial build runs more tasks than min(A, defaultParallelism)") {
    val sc = spark.sparkContext
    val input = rddOf(GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect())
    val p = 16 // a power of two, so A = p cells
    val bound = math.min(p, sc.defaultParallelism)
    val tasks = new ConcurrentLinkedQueue[Int]()
    // the stage that reads the input runs one task per input slice
    val counter = new SparkListener {
      override def onStageSubmitted(s: SparkListenerStageSubmitted): Unit =
        if (!s.stageInfo.rddInfos.exists(_.id == input.id)) tasks.add(s.stageInfo.numTasks)
    }
    sc.addSparkListener(counter)
    try {
      val res = DistributedNE.partition(spark, input, DistributedNE.Config(p))
      res.assignments.unpersist(blocking = false)
      // the listener bus is asynchronous: wait for the build's second stage
      // and the loop stage
      val deadline = System.nanoTime() + 10000000000L
      while (tasks.size < 2 && System.nanoTime() < deadline) Thread.sleep(10)
      assert(tasks.size == 2, s"saw ${tasks.size} stages after the one that reads the input")
      assert(tasks.asScala.max <= bound, s"a stage ran ${tasks.asScala.max} tasks, bound $bound")
    } finally sc.removeSparkListener(counter)
  }

  test("a partition call runs 2 jobs and assignments.unpersist leaves nothing cached") {
    val sc = spark.sparkContext
    val edges = TestGraphs.skewed(200, 1000)
    val input = rddOf(edges)
    val phase = "dne.test.phase"
    val jobs = new ConcurrentLinkedQueue[String]()
    val counter = new SparkListener {
      override def onJobStart(s: SparkListenerJobStart): Unit =
        jobs.add(Option(s.properties).flatMap(p => Option(p.getProperty(phase))).getOrElse(""))
    }
    val before = sc.getPersistentRDDs.keySet
    sc.addSparkListener(counter)
    try {
      sc.setLocalProperty(phase, "call")
      val res = DistributedNE.partition(spark, input, DistributedNE.Config(4))
      sc.setLocalProperty(phase, "read")
      val reads = Seq.fill(2)(res.assignments.collect().sortBy(t => (t._1, t._2)).toSeq)
      sc.setLocalProperty(phase, null)
      assert(reads(0) == reads(1), "a second read of the assignments differs from the first")
      checkComplete(edges, reads(0).toArray, 4)
      // the listener bus is asynchronous and in order: once both reads are
      // seen, so is every job of the call
      val deadline = System.nanoTime() + 10000000000L
      while (jobs.asScala.count(_ == "read") < 2 && System.nanoTime() < deadline) Thread.sleep(10)
      assert(jobs.asScala.count(_ == "read") == 2, s"saw jobs ${jobs.asScala.mkString(", ")}")
      // the build, then the loop; no job to build the output
      assert(res.iterations > 1)
      assert(jobs.asScala.count(_ == "call") == 2,
        s"${jobs.asScala.count(_ == "call")} jobs in ${res.iterations} iterations")
      res.assignments.unpersist(blocking = true)
      val left = sc.getPersistentRDDs.keySet.filterNot(before)
      assert(left.isEmpty, s"still cached after unpersist: ${left.map(sc.getPersistentRDDs).mkString(", ")}")
    } finally {
      sc.setLocalProperty(phase, null)
      sc.removeSparkListener(counter)
    }
  }

  test("a partition call runs one shuffle, the initial build") {
    // the membership sync ships with the phase-2 stage instead of a shuffle
    val sc = spark.sparkContext
    val input = rddOf(TestGraphs.skewed(200, 1000))
    val phase = "dne.test.phase"
    val events = new ConcurrentLinkedQueue[String]() // "job <phase>" or "shuffle <phase>"
    def phaseOf(props: java.util.Properties): String =
      Option(props).flatMap(p => Option(p.getProperty(phase))).getOrElse("")
    val watch = new SparkListener {
      override def onJobStart(s: SparkListenerJobStart): Unit = events.add(s"job ${phaseOf(s.properties)}")
      override def onStageSubmitted(s: SparkListenerStageSubmitted): Unit =
        if (StageShim.writesShuffle(s.stageInfo)) events.add(s"shuffle ${phaseOf(s.properties)}")
    }
    sc.addSparkListener(watch)
    try {
      sc.setLocalProperty(phase, "call")
      val res = DistributedNE.partition(spark, input, DistributedNE.Config(4))
      sc.setLocalProperty(phase, "read")
      res.assignments.collect()
      sc.setLocalProperty(phase, null)
      res.assignments.unpersist(blocking = false)
      // the listener bus is asynchronous and in order: once the read job is
      // seen, so is every stage of the call
      val deadline = System.nanoTime() + 10000000000L
      while (!events.contains("job read") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(events.contains("job read"), s"saw ${events.asScala.mkString(", ")}")
      assert(res.iterations > 1)
      val shuffles = events.asScala.count(_ == "shuffle call")
      assert(shuffles == 1, s"$shuffles shuffle-map stages in ${res.iterations} iterations")
    } finally {
      sc.setLocalProperty(phase, null)
      sc.removeSparkListener(watch)
    }
  }

  test("the topology is cached once: the loop stores only the final states") {
    val sc = spark.sparkContext
    val input = rddOf(GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect())
    val p = 16
    val slots = math.min(p, sc.defaultParallelism)
    val phase = "dne.test.phase"
    // in bus order: ("job <phase>", -1, 0) at each job start, and
    // ("store", rdd id, bytes) for each RDD block put in memory
    val events = new ConcurrentLinkedQueue[(String, Int, Long)]()
    val watch = new SparkListener {
      override def onJobStart(s: SparkListenerJobStart): Unit =
        events.add((s"job ${Option(s.properties).flatMap(p => Option(p.getProperty(phase))).getOrElse("")}", -1, 0L))
      override def onBlockUpdated(u: SparkListenerBlockUpdated): Unit = u.blockUpdatedInfo.blockId match {
        case RDDBlockId(rdd, _) if u.blockUpdatedInfo.memSize > 0 =>
          events.add(("store", rdd, u.blockUpdatedInfo.memSize))
        case _ =>
      }
    }
    sc.addSparkListener(watch)
    try {
      sc.setLocalProperty(phase, "call")
      val res = DistributedNE.partition(spark, input, DistributedNE.Config(p))
      sc.setLocalProperty(phase, "read")
      res.assignments.collect()
      sc.setLocalProperty(phase, null)
      res.assignments.unpersist(blocking = false)
      val deadline = System.nanoTime() + 10000000000L
      while (!events.asScala.exists(_._1 == "job read") && System.nanoTime() < deadline) Thread.sleep(10)
      // the blocks each job of the call stored, job by job
      val ofCall = events.asScala.toSeq.dropWhile(_._1 != "job call").takeWhile(_._1 != "job read")
      val perJob = ofCall.foldLeft(Vector.empty[Vector[(Int, Long)]]) {
        case (jobs, ("store", rdd, bytes)) => jobs.init :+ (jobs.last :+ ((rdd, bytes)))
        case (jobs, _) => jobs :+ Vector.empty
      }
      assert(res.iterations > 1)
      assert(perJob.length == 2, s"${perJob.length} jobs in ${res.iterations} iterations")
      val Seq(build, loop) = perJob
      // the build stores one topology block per slot, the loop one block of
      // final states per slot, of its own RDD
      assert(build.map(_._1).distinct.length == 1 && build.length == slots, s"the build stored $build")
      assert(loop.map(_._1).distinct.length == 1 && loop.length == slots, s"the loop stored $loop")
      assert(loop.head._1 != build.head._1, s"the loop stored blocks of the topology, RDD ${build.head._1}")
      val built = build.map(_._2).sum
      assert(loop.map(_._2).sum < built / 2, s"the loop stored ${loop.map(_._2).sum} bytes, the build $built")
    } finally {
      sc.setLocalProperty(phase, null)
      sc.removeSparkListener(watch)
    }
  }

  test("a task that fails on its first attempt is retried and the output is unchanged") {
    val sc = spark.sparkContext
    // the default test master, local[*,2], gives every task two attempts
    val attempts = """local\[[^,\]]+,\s*(\d+)\]""".r
    assume(sc.master match { case attempts(n) => n.toInt >= 2; case _ => false },
      s"master ${sc.master} does not retry tasks")
    val edges = GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect()
    val (expected, _) = runOn(edges, 4)
    val failed = new AtomicInteger
    val watch = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (e.taskInfo.failed) failed.incrementAndGet()
    }
    // slice 0 throws on its first attempt, while the build reads it
    val flaky = rddOf(edges).mapPartitionsWithIndex { (slice, it) =>
      if (slice == 0 && TaskContext.get().attemptNumber() == 0) throw new IllegalStateException("first attempt")
      it
    }
    sc.addSparkListener(watch)
    try {
      val res = DistributedNE.partition(spark, flaky, DistributedNE.Config(4))
      val retried = res.assignments.collect().sortBy(t => (t._1, t._2))
      res.assignments.unpersist(blocking = false)
      assert(retried.toSeq == expected.toSeq)
      val deadline = System.nanoTime() + 10000000000L
      while (failed.get == 0 && System.nanoTime() < deadline) Thread.sleep(10)
      assert(failed.get == 1, s"${failed.get} failed task attempts")
    } finally sc.removeSparkListener(watch)
  }

  /** The id of the loop RDD `stage` computes, if it is a loop stage (a
    * stage's own RDD is its newest).
    */
  private def loopRdd(stage: StageInfo): Option[Int] =
    Some(stage.rddInfos.maxBy(_.id)).filter(_.name == "DistributedNE.Loop").map(_.id)

  test("a loop task killed mid-loop is rerun with its whole gang and the output is unchanged") {
    val sc = spark.sparkContext
    assume(ReproShim.taskAttempts(sc) >= 2, s"master ${sc.master} does not retry tasks")
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val (expected, undisturbed) = runOn(edges, 4, lambda = 0.05)
    assert(undisturbed.iterations > 40, "the kill must land mid-loop")
    val loopStages = ConcurrentHashMap.newKeySet[Int]()
    val running = ConcurrentHashMap.newKeySet[Long]() // loop task attempts
    val failed = new AtomicInteger
    val killed = new AtomicInteger
    val killer = new SparkListener {
      override def onStageSubmitted(s: SparkListenerStageSubmitted): Unit =
        if (loopRdd(s.stageInfo).isDefined) loopStages.add(s.stageInfo.stageId)
      override def onTaskStart(t: SparkListenerTaskStart): Unit =
        if (loopStages.contains(t.stageId)) running.add(t.taskInfo.taskId)
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (loopStages.contains(e.stageId)) {
          running.remove(e.taskInfo.taskId)
          if (!e.taskInfo.successful) failed.incrementAndGet()
        }
      // the driver logs iteration 10 in the first attempt only
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case DistributedNE.IterationSynced(10, _) =>
          running.asScala.headOption.foreach { id =>
            if (sc.killTaskAttempt(id, interruptThread = false, "a test kills one loop task")) killed.incrementAndGet()
          }
        case _ =>
      }
    }
    sc.addSparkListener(killer)
    try {
      val (recovered, res) = runOn(edges, 4, lambda = 0.05)
      ReproShim.drainListenerBus(sc, 10000L)
      assert(killed.get == 1, "no loop task was killed")
      assert(failed.get >= 1, "no loop task attempt failed")
      assert(loopStages.size == 2, s"${loopStages.size} loop stages: the loop must run again, once")
      assert(res.iterations == undisturbed.iterations && res.trace == undisturbed.trace)
      assert(recovered.toSeq == expected.toSeq)
    } finally sc.removeSparkListener(killer)
  }

  /** Runs a call whose loop `breaker` breaks, given the call's loop jobs
    * (job, loop RDD) so far; checks that the call throws `expected`, and
    * that once it has thrown no job is active, no task runs, and neither
    * a cached block nor a mailbox of the call is left.
    */
  private def assertBrokenCallCleansUp(edges: Array[(Long, Long)], expected: String)(
      breaker: ConcurrentLinkedQueue[(Int, Int)] => SparkListener): Unit = {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val loops = new ConcurrentLinkedQueue[(Int, Int)]()
    val tasks = new AtomicInteger // started minus ended
    val watch = new SparkListener {
      override def onJobStart(s: SparkListenerJobStart): Unit =
        s.stageInfos.flatMap(loopRdd).foreach(rdd => loops.add((s.jobId, rdd)))
      override def onTaskStart(t: SparkListenerTaskStart): Unit = tasks.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.decrementAndGet()
    }
    val broken = breaker(loops)
    sc.addSparkListener(watch)
    sc.addSparkListener(broken)
    try {
      val thrown = intercept[SparkException](DistributedNE.partition(spark, rddOf(edges),
        DistributedNE.Config(numPartitions = 4, lambda = 0.05)))
      assert(thrown.getMessage.contains(expected), thrown.getMessage)
      ReproShim.drainListenerBus(sc, 10000L)
      assert(!loops.isEmpty, "no loop job ran")
      assert(sc.statusTracker.getActiveJobIds().isEmpty, "a job is still active")
      assert(tasks.get == 0, s"${tasks.get} tasks still running")
      val left = sc.getPersistentRDDs.keySet.filterNot(before)
      assert(left.isEmpty, s"still cached: ${left.map(sc.getPersistentRDDs).mkString(", ")}")
      loops.asScala.map(l => DistributedNE.mailboxName(l._2)).foreach { mailbox =>
        assert(!StageShim.hasEndpoint(sc, mailbox), s"$mailbox is still registered")
      }
    } finally {
      sc.removeSparkListener(broken)
      sc.removeSparkListener(watch)
    }
  }

  test("a call whose loop job is cancelled throws, and leaves no job, task, cached block or mailbox") {
    val sc = spark.sparkContext
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val (expected, undisturbed) = runOn(edges, 4, lambda = 0.05)
    assert(undisturbed.iterations > 10, "the cancel must land mid-loop")
    val cancelledAt = new AtomicLong
    assertBrokenCallCleansUp(edges, "cancelled") { loops =>
      new SparkListener {
        override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
          case DistributedNE.IterationSynced(5, _) =>
            cancelledAt.set(System.nanoTime())
            sc.cancelJob(loops.peek._1, "a test cancels the loop")
          case _ =>
        }
      }
    }
    val seconds = (System.nanoTime() - cancelledAt.get) / 1e9
    assert(cancelledAt.get > 0 && seconds < 15, s"the call ended $seconds s after its loop job was cancelled")
    val (next, _) = runOn(edges, 4, lambda = 0.05)
    assert(next.toSeq == expected.toSeq)
  }

  test("a call whose loop fails on every attempt throws, and leaves no job, task, cached block or mailbox") {
    val sc = spark.sparkContext
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val loopStages = ConcurrentHashMap.newKeySet[Int]()
    val killed = ConcurrentHashMap.newKeySet[Int]()
    // kills the first task of every loop stage
    assertBrokenCallCleansUp(edges, "Job aborted due to stage failure") { _ =>
      new SparkListener {
        override def onStageSubmitted(s: SparkListenerStageSubmitted): Unit =
          if (loopRdd(s.stageInfo).isDefined) loopStages.add(s.stageInfo.stageId)
        override def onTaskStart(t: SparkListenerTaskStart): Unit =
          if (loopStages.contains(t.stageId) && killed.add(t.stageId))
            sc.killTaskAttempt(t.taskInfo.taskId, interruptThread = false, "a test kills one loop task")
      }
    }
    assert(loopStages.size == ReproShim.taskAttempts(sc), s"${loopStages.size} loop attempts")
    val (again, _) = runOn(edges, 4, lambda = 0.05)
    checkComplete(edges, again, 4)
  }

  test("Result.assignments is an ordinary RDD: take, first and a second full read work") {
    val edges = TestGraphs.skewed(200, 1000)
    val res = DistributedNE.partition(spark, rddOf(edges), DistributedNE.Config(4))
    try {
      val a = res.assignments
      assert(a.take(1).length == 1)
      val first = a.first()
      val reads = Seq.fill(2)(a.collect().sortBy(t => (t._1, t._2)).toSeq)
      assert(reads(0) == reads(1), "a second read of the assignments differs from the first")
      assert(reads(0).contains(first))
      checkComplete(edges, reads(0).toArray, 4)
    } finally res.assignments.unpersist(blocking = false)
  }

  test("more slots than the cluster runs at once: the gang is clamped and the output unchanged") {
    val sc = spark.sparkContext
    val edges = GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect()
    def triplesOn(slots: Int): Seq[(Long, Long, Int)] = {
      val res = DistributedNE.partitionOn(spark, rddOf(edges), DistributedNE.Config(64), slots)
      val triples = res.assignments.collect().sortBy(t => (t._1, t._2))
      res.assignments.unpersist(blocking = false)
      triples.toSeq
    }
    assert(ReproShim.maxConcurrentTasks(sc) < 64)
    val expected = triplesOn(1)
    checkComplete(edges, expected.toArray, 64)
    assert(triplesOn(64) == expected)
  }

  /** Runs `body` with logger `name` at `level`, its lines sent only to a
    * list; returns the result and the lines.
    */
  private def withLog[T](name: String, level: Level)(body: => T): (T, Seq[String]) = {
    val lines = new ConcurrentLinkedQueue[String]()
    val watch = new AbstractAppender(s"$name-watch", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = lines.add(e.getMessage.getFormattedMessage)
    }
    watch.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val config = ctx.getConfiguration
    val logger = new LoggerConfig(name, level, false)
    logger.addAppender(watch, level, null)
    val result =
      try {
        config.addLogger(name, logger)
        ctx.updateLoggers()
        body
      } finally {
        config.removeLogger(name)
        ctx.updateLoggers()
        watch.stop()
      }
    (result, lines.asScala.toSeq)
  }

  test("a partition call hands Spark's closure cleaner no lambda") {
    // At debug level the cleaner logs each function it is handed: "Expected
    // a closure; got <class>" for one it passes through unread, other lines
    // for a lambda, whose declaring class it parses (for collect() or
    // count(): RDD and SparkContext, on every call).
    val passed = "Expected a closure; got "
    val input = rddOf(TestGraphs.skewed(200, 1000))
    val (res, lines) = withLog("org.apache.spark.util.ClosureCleaner", Level.DEBUG) {
      DistributedNE.partition(spark, input, DistributedNE.Config(4))
    }
    res.assignments.unpersist(blocking = false)
    val (named, other) = lines.partition(_.startsWith(passed))
    val lambdaLines = other.distinct
    assert(lambdaLines.isEmpty, "the cleaner worked on lambdas")
    // the build's mapPartitions, mapPartitionsWithIndex and runJob, then the
    // loop's submitJob
    val functions = named.length
    assert(res.iterations > 1)
    assert(functions == 4, s"saw $functions functions in ${res.iterations} iterations")
    named.map(_.stripPrefix(passed)).distinct.foreach { name =>
      assert(!name.contains("$anonfun$") && !Class.forName(name).isSynthetic, s"$name is a lambda")
    }
  }

  test("releasing checkpointed cells logs no lineage warning") {
    // RDD.unpersist warns on every locally checkpointed RDD it releases;
    // assignments.unpersist releases the topology and the final states
    val input = rddOf(TestGraphs.skewed(200, 1000))
    val (res, lines) = withLog("org.apache.spark.rdd", Level.WARN) {
      val r = DistributedNE.partition(spark, input, DistributedNE.Config(4))
      r.assignments.unpersist(blocking = true)
      r
    }
    assert(res.iterations > 1)
    val warned = lines.filter(_.contains("locally checkpointed"))
    assert(warned.isEmpty, s"${warned.length} lineage warnings in ${res.iterations} iterations")
  }

  test("partition sizes in the result sum to the edge count") {
    val edges = TestGraphs.skewed(300, 1500, seed = 5)
    val (_, res) = runOn(edges, 4)
    assert(res.partitionSizes.sum == edges.length)
    assert(res.numEdges == edges.length)
  }

  test("the per-iteration counters add up: one per iteration, sum of allocated = |E|") {
    val edges = GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect()
    val (_, res) = runOn(edges, 8)
    assert(res.trace.length == res.iterations)
    assert(res.trace.map(_.allocated).sum == res.numEdges)
    res.trace.foreach(s => assert(s.selected >= 1 && s.restarts <= s.selected, s"$s"))
    assert(res.trace.head.restarts == res.trace.head.selected, "the first iteration only restarts")
    assert(res.trace.map(_.skipped).sum > 0 && res.trace.map(_.givenUp).sum > 0)
  }

  test("the synced memberships cover every replica: the sum of synced is at least the replica count") {
    // each (vertex, partition) pair of the output is made by phase 1 in some
    // cell and iteration, and synced then; two cells may make the same one
    val edges = GraphGen.rmat(spark, scale = 9, edgeFactor = 8, seed = 3).collect()
    val (triples, res) = runOn(edges, 8)
    val replicas = math.round(LocalMetrics.replicationFactor(triples) * LocalMetrics.numVertices(edges))
    val synced = res.trace.map(_.synced.toLong).sum
    assert(res.trace.forall(_.synced >= 0))
    assert(synced >= replicas, s"$synced memberships synced, $replicas replicas")
  }

  test("self-loops, duplicated and reversed pairs: every occurrence comes back once") {
    val base = TestGraphs.skewed(60, 200, seed = 11)
    val (u, v) = base(3)
    val edges = base ++ Array(
      (5L, 5L), (5L, 5L),        // a repeated self-loop on a graph vertex
      (900L, 900L),              // a vertex whose only edge is a self-loop
      base(0), base(1), base(1), // a pair twice, another three times
      (v, u),                    // both orientations of one pair
      (1001L, 1000L))            // a lone edge given as (larger, smaller)
    val key = Ordering.Tuple2[Long, Long]
    for (p <- Seq(4, 6)) {
      val (triples, res) = runOn(edges, p)
      assert(triples.map(t => (t._1, t._2)).sorted(key).toSeq == edges.sorted(key).toSeq,
        s"P = $p: every input occurrence must come back exactly once, as given")
      triples.foreach(t => assert(t._3 >= 0 && t._3 < p, s"partition out of range: $t"))
      assert(res.numEdges == edges.length && res.partitionSizes.sum == edges.length)
    }
  }

  test("config validation rejects bad parameters") {
    intercept[IllegalArgumentException](DistributedNE.Config(0))
    intercept[IllegalArgumentException](DistributedNE.Config(4, alpha = 1.0))
    intercept[IllegalArgumentException](DistributedNE.Config(4, lambda = 0.0))
    intercept[IllegalArgumentException](DistributedNE.Config(4, lambda = 1.5))
  }

  test("empty graph is rejected") {
    intercept[IllegalArgumentException] {
      DistributedNE.partition(spark, spark.sparkContext.emptyRDD[(Long, Long)],
        DistributedNE.Config(2))
    }
  }
}
