package org.apache.spark

import org.apache.spark.scheduler.StageInfo

import scala.util.Try

/** Test access to `private[spark]` parts of Spark. */
object StageShim {
  /** Whether the stage is a shuffle-map stage, i.e. writes a shuffle. */
  def writesShuffle(info: StageInfo): Boolean = info.shuffleDepId.isDefined

  /** Whether an RPC endpoint named `name` is registered on the driver. */
  def hasEndpoint(sc: SparkContext, name: String): Boolean =
    Try(sc.env.rpcEnv.setupEndpointRef(sc.env.rpcEnv.address, name)).isSuccess
}
