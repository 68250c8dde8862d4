package org.apache.spark

import org.apache.spark.scheduler.StageInfo

/** Test access to a stage's `private[spark]` shuffle id. */
object StageShim {
  /** Whether the stage is a shuffle-map stage, i.e. writes a shuffle. */
  def writesShuffle(info: StageInfo): Boolean = info.shuffleDepId.isDefined
}
