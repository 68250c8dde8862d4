package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench._

import scala.collection.immutable.ListMap

/** spark-submit entrypoint for the evaluation tables.
  * Usage: TableJob <1|4|5|6>
  * Prints the measured-vs-paper table and writes the same text to
  * bench/results/tableN.txt for EXPERIMENTS.md.
  */
object TableJob {
  /** Table number → (Spark app name, the table's runner). */
  private val tables = ListMap[String, (String, SparkSession => String)](
    "1" -> ("table1-bounds", Table1.run _),
    "4" -> ("table4-sequential-comparison", Table4.run _),
    "5" -> ("table5-graph-apps", Table5.run _),
    "6" -> ("table6-road-networks", Table6.run _),
  )

  def main(args: Array[String]): Unit = {
    require(args.length == 1, s"usage: TableJob <${tables.keys.mkString("|")}>")
    val n = args(0)
    val (appName, run) = tables.getOrElse(n, throw new IllegalArgumentException(
      s"unknown table '$n'; known: " + tables.keys.mkString(", ")))
    val spark = JobSession.create(appName)
    val out = run(spark)
    println(out); TextTable.write(s"table$n.txt", out)
    spark.stop()
  }
}

/** Generic runner: partition one catalogue graph with one method.
  * Usage: PartitionJob <method> <graph-name> [numPartitions]
  */
object PartitionJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: PartitionJob <method> <graph-name> [numPartitions]")
    val method = args(0)
    val name = args(1)
    val p = if (args.length > 2) args(2).toInt else 64
    if (!Runners.methods.contains(method))
      throw new IllegalArgumentException(
        s"unknown method '$method'; known: " + Runners.methods.mkString(", "))
    val spark = JobSession.create(s"partition-$method-$name")
    val spec = (Datasets.skewed ++ Datasets.roads).find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(
        s"unknown graph '$name'; known: " +
        (Datasets.skewed ++ Datasets.roads).map(_.name).mkString(", ")))
    val r = Runners.runAll(spark, spec, Seq(method), p).head
    println(f"method=$method graph=$name P=$p RF=${r.rf}%.3f EB=${r.eb}%.3f " +
            f"VB=${r.vb}%.3f time=${r.seconds}%.2fs edges=${r.edges.length}")
    spark.stop()
  }
}
