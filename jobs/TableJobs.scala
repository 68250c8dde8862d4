package repro.jobs

import repro.bench._

/** spark-submit entrypoints, one per evaluation table.
  * Each prints the measured-vs-paper table and writes the same text under
  * bench/results/ for EXPERIMENTS.md.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table1-bounds")
    val out = Table1.run(spark)
    println(out); TextTable.write("table1.txt", out)
    spark.stop()
  }
}

object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table4-sequential-comparison")
    val out = Table4.run(spark)
    println(out); TextTable.write("table4.txt", out)
    spark.stop()
  }
}

object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table5-graph-apps")
    val out = Table5.run(spark)
    println(out); TextTable.write("table5.txt", out)
    spark.stop()
  }
}

object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table6-road-networks")
    val out = Table6.run(spark)
    println(out); TextTable.write("table6.txt", out)
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
