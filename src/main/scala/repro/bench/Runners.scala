package repro.bench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.baselines._
import repro.core.{DistributedNE, SequentialNE}
import repro.graph.LocalMetrics

/** Shared helpers for the table benches: run a named partitioner on a
  * graph, time it, and compute the §2 quality metrics on the result.
  */
object Runners {

  final case class RunResult(method: String, rf: Double, eb: Double, vb: Double,
                             seconds: Double, edges: Array[(Long, Long)],
                             assign: Array[Int])

  /** Collects an RDD assignment into aligned (edges, parts) arrays. */
  def collectAssign(rdd: RDD[(Long, Long, Int)]): (Array[(Long, Long)], Array[Int]) = {
    val triples = rdd.collect()
    scala.util.Sorting.quickSort(triples)(Ordering.by[(Long, Long, Int), (Long, Long)](t => (t._1, t._2)))
    (triples.map(t => (t._1, t._2)), triples.map(_._3))
  }

  def metricsOf(method: String, edges: Array[(Long, Long)], assign: Array[Int],
                seconds: Double): RunResult = {
    val triples = edges.indices.map(i => (edges(i)._1, edges(i)._2, assign(i))).toArray
    RunResult(method,
      LocalMetrics.replicationFactor(triples),
      LocalMetrics.edgeBalance(triples),
      LocalMetrics.vertexBalance(triples),
      seconds, edges, assign)
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Runs the partitioner named as in the paper's tables.
    *
    * Spark-side methods (Rand., 2D-R., Obli., D.NE) consume the RDD;
    * driver-side comparators (H.G., HDRF, NE, SNE, Sheep, P.M., X.P.)
    * consume the pre-collected edge array — mirroring what each system is
    * in the paper (distributed vs sequential/external comparator).
    */
  def run(method: String, spark: SparkSession, rdd: RDD[(Long, Long)],
          edges: Array[(Long, Long)], p: Int, seed: Long = 42L): RunResult =
    method match {
      case "Rand." =>
        val (a, s) = timed(collectAssign(HashPartitioners.random1D(rdd, p)))
        metricsOf(method, a._1, a._2, s)
      case "2D-R." =>
        val (a, s) = timed(collectAssign(HashPartitioners.grid(rdd, p)))
        metricsOf(method, a._1, a._2, s)
      case "DBH" =>
        val (a, s) = timed(collectAssign(HashPartitioners.dbh(rdd, p)))
        metricsOf(method, a._1, a._2, s)
      case "Obli." =>
        val (a, s) = timed(collectAssign(Oblivious.partition(rdd, p)))
        metricsOf(method, a._1, a._2, s)
      case "H.G." =>
        val (a, s) = timed(HybridGinger.partition(edges, p))
        metricsOf(method, edges, a, s)
      case "HDRF" =>
        val (a, s) = timed(HDRF.partition(edges, p))
        metricsOf(method, edges, a, s)
      case "NE" =>
        val (a, s) = timed(SequentialNE.partition(edges, SequentialNE.Config(p, seed = seed)))
        metricsOf(method, edges, a, s)
      case "SNE" =>
        // SNE's buffer holds ~100 M edges in the original; every stand-in
        // fits in one buffer, so the faithful setting is a single chunk.
        // Smaller buffers (the memory/quality trade-off) are exercised in
        // unit tests.
        val (a, s) = timed(SNE.partition(edges, p, chunkEdges = math.max(1, edges.length)))
        metricsOf(method, edges, a, s)
      case "Sheep" =>
        val (a, s) = timed(Sheep.partition(edges, p))
        metricsOf(method, edges, a, s)
      case "P.M." =>
        val (a, s) = timed {
          val vp = MultilevelVertex.partition(edges, p, seed = seed)
          VertexCutConversion.fromVertexPartition(vp, edges)
        }
        metricsOf(method, edges, a, s)
      case "X.P." =>
        val (a, s) = timed {
          val vp = LabelPropagation.xtrapulp(edges, p, seed = seed)
          VertexCutConversion.fromVertexPartition(vp, edges)
        }
        metricsOf(method, edges, a, s)
      case "Spinner" =>
        val (a, s) = timed {
          val vp = LabelPropagation.spinner(edges, p, seed = seed)
          VertexCutConversion.fromVertexPartition(vp, edges)
        }
        metricsOf(method, edges, a, s)
      case "D.NE" =>
        val (res, s) = timed(DistributedNE.partition(spark, rdd,
          DistributedNE.Config(numPartitions = p, seed = seed)))
        val (es, as) = collectAssign(res.assignments)
        res.assignments.unpersist(blocking = false)
        metricsOf(method, es, as, s)
      case other => throw new IllegalArgumentException(s"unknown partitioner: $other")
    }
}
