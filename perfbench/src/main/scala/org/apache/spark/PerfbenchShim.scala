package org.apache.spark

import org.apache.spark.scheduler.StageInfo

/** The two `private[spark]` members the benchmark's tracer needs. */
object PerfbenchShim {

  /** Blocks until every event posted so far has reached every listener. */
  def drainListenerBus(sc: SparkContext, timeoutMillis: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMillis)

  /** The shuffle a stage writes: defined for shuffle-map stages, empty for
    * result stages.
    */
  def shuffleDepId(info: StageInfo): Option[Int] = info.shuffleDepId
}
