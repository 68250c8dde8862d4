package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.DistributedNE
import repro.graph.GraphGen

/** A generator of benchmark inputs and the partitioner settings. A run
  * partitions `inputs` graphs generated from its seed and reports means over
  * them; the program sees only the edges.
  */
final case class Workload(name: String, numParts: Int, lambda: Double, inputs: Int,
                          gen: (SparkSession, Long) => RDD[(Long, Long)]) {
  def config: DistributedNE.Config =
    DistributedNE.Config(numParts, alpha = Workloads.Alpha, lambda = lambda)
}

/** Why each workload exists is recorded in README.md beside this file. */
object Workloads {
  val Alpha = 1.1

  val all: Seq[Workload] = Seq(
    Workload("rmat-p16", 16, 0.1, 2, (s, seed) => GraphGen.rmat(s, 12, 16, seed)),
    Workload("road-p16", 16, 1.0, 8, (s, seed) => GraphGen.roadLattice(s, 24, 24, seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
