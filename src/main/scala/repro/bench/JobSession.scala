package repro.bench

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the `jobs/` entrypoints (spark-submit or
  * `sbt runMain`). No job runs Spark SQL, so only the master (default
  * `local[*]`, or `SPARK_MASTER`) and the UI switch are set.
  */
object JobSession {
  def create(appName: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}
