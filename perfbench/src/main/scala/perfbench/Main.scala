package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.PerfbenchShim
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{DistributedNE, SequentialNE}

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** One checked `DistributedNE.partition` call on input `input`. */
final case class Call(input: Int, seconds: Double, startMs: Long, endMs: Long,
                      iterations: Int, quality: Quality, cachePeakBytes: Long,
                      cacheStoredBytes: Long, trace: Option[CallCounters])

/** Closed-loop benchmark of `DistributedNE.partition`: one client, one call
  * at a time, in one JVM on the `local[N]` master the launcher pins.
  *
  * Usage: `Main --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]`.
  * Prints one line per metric and, last, one JSON object; exits 1 if any
  * call failed or any output check did not hold.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 5
  /** Untimed calls, cycling through the inputs, continue until they have
    * run this many `partition` iterations. With the C1-only JIT the
    * launcher pins, the first 30 or so iterations in a JVM run up to 1.5×
    * slower; after that call times no longer fall, whichever input they
    * partition. Counting iterations, not seconds, keeps the timed calls at
    * the same point on a slower machine.
    */
  val WarmupIterations = 40
  /** Rounds made even when they overrun `--seconds`: one, or two when a
    * traced run has one input, so that traced and untraced calls each run
    * first at least once.
    */
  def minRounds(trace: Boolean, inputs: Int): Int = if (trace && inputs == 1) 2 else 1
  /** Allowed distance of a job span outside its call span: one tick of the
    * millisecond clock Spark stamps events with. Within it, `driver.self_s`
    * + `sched.job_s` equals the call span.
    */
  val SpanMarginMs = 1L

  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        spans: Option[String])

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val opts = Opts(Workloads.byName(arg("workload")), arg("seed").toLong, arg("seconds").toDouble,
      arg("trace") == "1", kv.get("spans"))
    val bench = new Bench(opts)
    val ok = try bench.run() finally bench.stop()
    sys.exit(if (ok) 0 else 1)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

final class Bench(o: Main.Opts) {
  import Main._

  private val w = o.workload
  private var spark: SparkSession = _
  private var inputs = IndexedSeq.empty[RDD[(Long, Long)]]
  private var attempted = 0
  private val failures = ArrayBuffer.empty[String]
  private val setupS = ArrayBuffer.empty[Double]
  private val genS = ArrayBuffer.empty[Double]
  private val metrics = ArrayBuffer.empty[(String, Double, String)]

  def stop(): Unit = if (spark != null) spark.stop()

  /** Runs set-up, the warm-up calls and the timed calls; prints the
    * metrics. A round calls `partition` once on each input (with `--trace 1`,
    * once untraced and once traced).
    * @return whether every call succeeded and passed every check
    */
  def run(): Boolean = {
    setUp()
    val sc = spark.sparkContext
    val refs = inputs.map(e => new Reference(e.collect(), w.numParts, Workloads.Alpha))
    val inputIds = inputs.map(_.id).toSet
    val cache = new CacheWatch(inputIds)
    val tracer = new Tracer(inputIds)
    sc.addSparkListener(cache)
    val checksums = Array.fill[Option[Long]](inputs.length)(None)

    def call(i: Int, kind: String): Option[Call] = {
      val traced = kind == "traced"
      System.gc()
      PerfbenchShim.drainListenerBus(sc)
      cache.begin()
      if (traced) {
        tracer.begin(s"call-$attempted")
        sc.addSparkListener(tracer)
      }
      attempted += 1
      val startMs = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val res =
        try Right(DistributedNE.partition(spark, inputs(i), w.config))
        catch { case NonFatal(e) => Left(s"partition threw $e") }
      val seconds = (System.nanoTime() - t0) / 1e9
      val endMs = System.currentTimeMillis()
      PerfbenchShim.drainListenerBus(sc)
      val counters =
        if (!traced) None
        else {
          sc.removeSparkListener(tracer)
          Some(tracer.end(startMs, endMs, s"partition ${w.name} input $i"))
        }
      val checked = res.flatMap { r =>
        val triples = r.assignments.collect()
        r.assignments.unpersist(blocking = true)
        refs(i).check(triples, r.numEdges, r.partitionSizes).flatMap { q =>
          if (checksums(i).exists(_ != q.checksum)) Left("assignment differs from an earlier call's")
          else {
            checksums(i) = Some(q.checksum)
            counters.map(checkTrace(_, startMs, endMs)).getOrElse(Right(()))
              .map(_ => Call(i, seconds, startMs, endMs, r.iterations, q, cache.peakBytes,
                cache.storedBytes, counters))
          }
        }
      }
      val iters = res.fold(_ => "-", _.iterations.toString)
      System.err.println(f"perfbench: call $attempted ($kind, input $i) $iters iterations $seconds%.3f s")
      checked.left.foreach(msg => failures += s"call $attempted (input $i): $msg")
      checked.toOption
    }

    // a failed warm-up call ends the warm-up; it is counted as failed
    var warmIterations = 0
    var warmCalls = 0
    while (warmIterations < WarmupIterations) {
      warmIterations += call(warmCalls % inputs.length, "warm-up").map(_.iterations).getOrElse(WarmupIterations)
      warmCalls += 1
    }

    // Timed steps cycle through the inputs; a step is one call, or with
    // --trace 1 an untraced and a traced call of one input. Steps continue
    // while the next, taking as long as the last, ends by the deadline.
    val untraced = ArrayBuffer.empty[Call]
    val traced = ArrayBuffer.empty[Call]
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    var step = 0
    var stepNs = 0L
    while (step < minRounds(o.trace, inputs.length) * inputs.length ||
           System.nanoTime() + stepNs < deadline) {
      val s0 = System.nanoTime()
      val i = step % inputs.length
      if (!o.trace) call(i, "timed").foreach(untraced += _)
      else {
        // alternate which of the pair runs first, across inputs and rounds
        val kinds =
          if ((step / inputs.length + i) % 2 == 0) Seq("timed", "traced") else Seq("traced", "timed")
        kinds.foreach(k => call(i, k).foreach(c => (if (k == "traced") traced else untraced) += c))
      }
      step += 1
      stepNs = System.nanoTime() - s0
    }

    def complete(cs: ArrayBuffer[Call]) = cs.map(_.input).distinct.length == inputs.length
    if (!complete(untraced) || (o.trace && !complete(traced))) failures += "an input has no good call"
    else if (o.trace) perLayer(refs, untraced.toSeq, traced.toSeq, sc.defaultParallelism)
    else endToEnd(untraced.toSeq)
    o.spans.foreach { path =>
      val p = Paths.get(path)
      Files.createDirectories(p.toAbsolutePath.getParent)
      Files.write(p, tracer.spans.map(_.toJson).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    }
    report(untraced.length + traced.length)
  }

  /** JVM start → SparkSession → GraphGen → cached edge RDDs counted, repeated
    * [[Main.SetupReps]] times with a fresh session; the first repetition
    * counts from JVM start. The last session stays for the calls. Input `j`
    * is generated from seed `seed · inputs + j`.
    */
  private def setUp(): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    (0 until SetupReps).foreach { rep =>
      stop()
      val t0 = System.nanoTime()
      spark = SparkSession.builder.appName(s"perfbench-${w.name}").getOrCreate()
      val g0 = System.nanoTime()
      inputs = (0 until w.inputs).map { j =>
        val e = w.gen(spark, o.seed * w.inputs + j).persist(StorageLevel.MEMORY_ONLY)
        e.count()
        e
      }
      val t1 = System.nanoTime()
      setupS += (if (rep == 0) (System.currentTimeMillis() - jvmStartMs) / 1e3 else (t1 - t0) / 1e9)
      genS += (t1 - g0) / 1e9
      System.err.println(f"perfbench: set-up $rep ${setupS.last}%.3f s")
    }
  }

  /** The trace adds up: every submitted stage completed in one of the three
    * layers, and every job lies within the call span.
    */
  private def checkTrace(c: CallCounters, startMs: Long, endMs: Long): Either[String, Unit] = {
    val classified = c.layers.values.map(_.stages).sum
    if (classified != c.stages) Left(s"$classified stages classified, ${c.stages} completed")
    else if (c.jobSpans.exists { case (s, e) => s < startMs - SpanMarginMs || e > endMs + SpanMarginMs })
      Left("a job span lies outside its call span")
    else Right(())
  }

  private def put(name: String, value: Double, unit: String): Unit = metrics += ((name, value, unit))

  /** Mean over the inputs of the median of `f` over each input's calls. */
  private def perInput(calls: Seq[Call])(f: Call => Double): Double = {
    val byInput = calls.groupBy(_.input).values.map(cs => median(cs.map(f)))
    byInput.sum / byInput.size
  }

  private def endToEnd(calls: Seq[Call]): Unit = {
    val m = perInput(calls) _
    put("partition_s", m(_.seconds), "s")
    put("iterations", m(_.iterations), "count")
    put("rf", m(_.quality.rf), "ratio")
    put("eb", m(_.quality.eb), "ratio")
    put("cache_peak_mb", m(_.cachePeakBytes / 1e6), "MB")
    put("setup_s", median(setupS.toSeq), "s")
  }

  private def perLayer(refs: Seq[Reference], untraced: Seq[Call], traced: Seq[Call],
                       cores: Int): Unit = {
    val counts = traced.groupBy(_.input).values.map(_.map { c =>
      (c.trace.get.tasks, c.trace.get.syncRecords) }.distinct)
    if (counts.exists(_.length > 1)) failures += "task or sync-record counts differ between calls"

    def jobMs(c: Call) = unionMs(c.trace.get.jobSpans.toSeq, c.startMs, c.endMs)
    def selfMs(c: Call) = (c.endMs - c.startMs) - jobMs(c)
    val m = perInput(traced) _
    def t(f: CallCounters => Double) = m(c => f(c.trace.get))
    def layer(l: Layer.Value)(f: LayerCounters => Double) = t(c => f(c.layers(l)))
    val iters = m(_.iterations)
    val untracedS = perInput(untraced)(_.seconds)
    val edges = refs.map(_.numEdges).sum.toDouble / refs.length

    put("sched.jobs", t(_.jobSpans.length), "count")
    put("sched.stages", t(_.stages), "count")
    put("sched.tasks", t(_.tasks), "count")
    put("sched.tasks_per_iter", t(_.tasks) / iters, "count")
    put("sched.delay_s", t(_.delayMs) / 1e3, "s")
    put("sched.deser_s", t(_.deserMs) / 1e3, "s")
    put("sched.job_s", m(jobMs) / 1e3, "s")
    put("driver.self_s", m(selfMs) / 1e3, "s")
    put("driver.self_ms_per_iter", m(selfMs) / iters, "ms")
    put("driver.gather_mb", t(_.resultBytes) / 1e6, "MB")
    for ((l, prefix) <- Seq(Layer.Phase1 -> "phase1", Layer.Phase2 -> "phase2")) {
      put(s"$prefix.run_s", layer(l)(_.runMs) / 1e3, "s")
      put(s"$prefix.cpu_s", layer(l)(_.cpuNs) / 1e9, "s")
    }
    put("aux.stages", layer(Layer.Aux)(_.stages), "count")
    put("aux.tasks", layer(Layer.Aux)(_.tasks), "count")
    put("aux.run_s", layer(Layer.Aux)(_.runMs) / 1e3, "s")
    put("sync.records", t(_.syncRecords), "count")
    put("sync.mb", t(_.syncBytes) / 1e6, "MB")
    put("sync.write_s", t(_.syncWriteNs) / 1e9, "s")
    put("sync.records_per_replica", m(c => c.trace.get.syncRecords.toDouble / c.quality.replicas), "ratio")
    put("cache.stored_mb", m(_.cacheStoredBytes / 1e6), "MB")
    put("gen.s", median(genS.toSeq), "s")
    put("gen.edges", edges, "count")
    put("dne.ms_per_iter", untracedS * 1e3 / iters, "ms")
    put("dne.edges_per_iter", edges / iters, "count")
    put("exec.busy_ratio", m(c => c.trace.get.layers.values.map(_.runMs).sum / (jobMs(c) * cores)), "ratio")
    put("trace.overhead_ratio", m(_.seconds) / untracedS, "ratio")

    val seq = refs.map { ref =>
      val t0 = System.nanoTime()
      val parts = SequentialNE.partition(ref.edgeArray,
        SequentialNE.Config(w.numParts, alpha = Workloads.Alpha))
      ((System.nanoTime() - t0) / 1e9, ref.quality(parts).rf)
    }
    put("ref.seq_ne_s", seq.map(_._1).sum / seq.length, "s")
    put("ref.seq_ne_rf", seq.map(_._2).sum / seq.length, "ratio")
  }

  /** Length of the union of `spans`, clipped to [from, to]. */
  private def unionMs(spans: Seq[(Long, Long)], from: Long, to: Long): Double = {
    var covered = 0L
    var reach = from
    spans.sortBy(_._1).foreach { case (s, e) =>
      val a = math.max(s, reach)
      val b = math.min(e, to)
      if (b > a) covered += b - a
      reach = math.max(reach, b)
    }
    covered.toDouble
  }

  private def report(timedCalls: Int): Boolean = {
    println(s"workload=${w.name} seed=${o.seed} trace=${if (o.trace) 1 else 0} " +
      s"inputs=${w.inputs} timed_calls=$timedCalls set-ups=$SetupReps " +
      "(timings: median per input, mean over inputs)")
    metrics.foreach { case (n, v, u) => println(f"  $n%-26s $v%14.6f $u") }
    failures.foreach(f => println(s"  FAILED $f"))
    val body = metrics.map { case (n, v, u) =>
      s"${Json.str(n)}: {\"value\": $v, \"unit\": ${Json.str(u)}}" }.mkString(", ")
    println(s"""{"correct": ${failures.isEmpty}, "attempted": $attempted, """ +
      s""""failed": ${failures.length}, "metrics": {$body}}""")
    failures.isEmpty
  }
}
