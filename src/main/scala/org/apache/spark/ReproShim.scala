package org.apache.spark

import org.apache.spark.rdd.RDD

/** Releases a cached RDD's blocks as `RDD.unpersist` does, without the WARN
  * that `unpersist` logs each time for a `localCheckpoint`ed RDD.
  */
object ReproShim {
  def release(rdd: RDD[_], blocking: Boolean): Unit = rdd.sparkContext.unpersistRDD(rdd.id, blocking)
}
