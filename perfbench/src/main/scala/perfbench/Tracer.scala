package perfbench

import org.apache.spark.PerfbenchShim
import org.apache.spark.scheduler._
import org.apache.spark.storage.RDDBlockId

import scala.collection.mutable

/** One traced interval. Times are epoch milliseconds, the clock Spark
  * stamps its listener events with; `parent` is the id of the span that
  * caused this one ("" for a call).
  */
final case class Span(id: String, kind: String, name: String,
                      startMs: Long, endMs: Long, parent: String) {
  def toJson: String =
    s"""{"id":${Json.str(id)},"kind":${Json.str(kind)},"name":${Json.str(name)},""" +
    s""""start_ms":$startMs,"end_ms":$endMs,"parent":${Json.str(parent)}}"""
}

/** Stage classes of one `DistributedNE.partition` call. */
object Layer extends Enumeration {
  val Phase1, Phase2, Aux = Value
}

/** Task counters summed over the stages of one layer. */
final class LayerCounters {
  var stages = 0L
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
}

/** Everything the tracer counts during one call. */
final class CallCounters {
  val layers: Map[Layer.Value, LayerCounters] =
    Layer.values.iterator.map(_ -> new LayerCounters).toMap
  val jobSpans = mutable.ArrayBuffer.empty[(Long, Long)]
  var stages = 0L
  var tasks = 0L
  var delayMs = 0L
  var deserMs = 0L
  var resultBytes = 0L
  var syncRecords = 0L
  var syncBytes = 0L
  var syncWriteNs = 0L
}

/** Keeps the in-memory size of every cached RDD block and samples the total
  * at each job end. Block stores arrive as `SparkListenerBlockUpdated`, but
  * an unpersist does not report its blocks' removal, so all blocks of an RDD
  * are dropped on `SparkListenerUnpersistRDD`. Both events are posted in
  * the driver's program order, so the peak does not depend on when the
  * asynchronous block removals finish.
  *
  * The benchmark's own input RDDs are left out: the program cannot change them.
  */
final class CacheWatch(inputRddIds: Set[Int]) extends SparkListener {
  private val blocks = mutable.HashMap.empty[RDDBlockId, Long]
  private var current = 0L
  private var peak = 0L
  private var stored = 0L

  /** Starts a new call: the peak restarts from what is cached now. */
  def begin(): Unit = synchronized { peak = current; stored = 0L }
  def peakBytes: Long = synchronized(peak)
  def storedBytes: Long = synchronized(stored)

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    info.blockId match {
      case b: RDDBlockId if !inputRddIds(b.rddId) =>
        current -= blocks.remove(b).getOrElse(0L)
        if (info.storageLevel.isValid && info.memSize > 0) {
          blocks(b) = info.memSize
          current += info.memSize
          stored += info.memSize
        }
      case _ =>
    }
  }

  override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = synchronized {
    val gone = blocks.keys.filter(_.rddId == e.rddId).toList
    gone.foreach(b => current -= blocks.remove(b).get)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    peak = math.max(peak, current)
  }
}

/** Records a span per job and stage of a traced call, and per-layer task
  * counters.
  *
  * Stages are classified from their shuffle fields, never from call sites:
  *  - a shuffle-map stage over one of the benchmark's input RDDs is the initial
  *    build (aux); any other shuffle-map stage is phase 1, whose shuffle is
  *    the membership sync;
  *  - a result stage whose parent phase-1 stage ran in the same job reads
  *    the sync shuffle: phase 2;
  *  - every other stage is aux (initial collect, re-reads of cached state,
  *    the final materialise).
  *
  * Callbacks run on the listener thread; the benchmark reads the counters
  * only after draining the bus.
  */
final class Tracer(inputRddIds: Set[Int]) extends SparkListener {
  private val spansOut = mutable.ArrayBuffer.empty[Span]
  private var callId = ""
  private var counters = new CallCounters
  private var jobId = -1
  private val jobStartMs = mutable.HashMap.empty[Int, Long]
  private val stageLayer = mutable.HashMap.empty[Int, Layer.Value]
  private val stageJob = mutable.HashMap.empty[Int, Int]
  private var ranInJob = Set.empty[Int]

  def begin(id: String): Unit = synchronized {
    callId = id
    counters = new CallCounters
    stageLayer.clear()
    stageJob.clear()
  }

  /** Closes the call's span and returns its counters. */
  def end(startMs: Long, endMs: Long, name: String): CallCounters = synchronized {
    spansOut += Span(callId, "call", name, startMs, endMs, "")
    counters
  }

  def spans: Seq[Span] = synchronized(spansOut.toList)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobId = e.jobId
    jobStartMs(e.jobId) = e.time
    ranInJob = Set.empty
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    val start = jobStartMs.remove(e.jobId).getOrElse(e.time)
    counters.jobSpans += ((start, e.time))
    spansOut += Span(s"$callId/job-${e.jobId}", "job", s"job ${e.jobId}", start, e.time, callId)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val info = e.stageInfo
    val layer = PerfbenchShim.shuffleDepId(info) match {
      case Some(_) if info.rddInfos.exists(r => inputRddIds(r.id)) => Layer.Aux
      case Some(_) => Layer.Phase1
      case None if info.parentIds.exists(p => ranInJob(p) && stageLayer.get(p).contains(Layer.Phase1)) =>
        Layer.Phase2
      case None => Layer.Aux
    }
    stageLayer(info.stageId) = layer
    stageJob(info.stageId) = jobId
    ranInJob += info.stageId
    counters.layers(layer).stages += 1
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val layer = stageLayer.getOrElse(info.stageId, Layer.Aux)
    val job = s"$callId/job-${stageJob.getOrElse(info.stageId, jobId)}"
    val start = info.submissionTime.getOrElse(0L)
    counters.stages += 1
    spansOut += Span(s"$job/stage-${info.stageId}.${info.attemptNumber()}", "stage",
      s"$layer: ${info.name}", start, info.completionTime.getOrElse(start), job)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val t = e.taskInfo
      val c = counters
      val layer = stageLayer.getOrElse(e.stageId, Layer.Aux)
      val l = c.layers(layer)
      l.tasks += 1
      l.runMs += m.executorRunTime
      l.cpuNs += m.executorCpuTime
      c.tasks += 1
      c.deserMs += m.executorDeserializeTime
      c.resultBytes += m.resultSize
      val gettingResult = if (t.gettingResultTime > 0) t.finishTime - t.gettingResultTime else 0L
      c.delayMs += math.max(0L,
        (t.finishTime - t.launchTime) - m.executorRunTime - m.executorDeserializeTime - gettingResult)
      if (layer == Layer.Phase1) {
        c.syncRecords += m.shuffleWriteMetrics.recordsWritten
        c.syncBytes += m.shuffleWriteMetrics.bytesWritten
        c.syncWriteNs += m.shuffleWriteMetrics.writeTime
      }
    }
  }
}

/** Just enough JSON writing for flat numbers and strings. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
