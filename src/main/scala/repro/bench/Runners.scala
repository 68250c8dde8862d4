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

  /** One method's partitioning and its quality; `times` holds the wall
    * time of each call that produced it, and `seconds` is their median.
    */
  final case class RunResult(method: String, rf: Double, eb: Double, vb: Double,
                             times: Seq[Double], edges: Array[(Long, Long)],
                             assign: Array[Int]) {
    def seconds: Double = times.sorted.apply(times.length / 2)
  }

  private type Edges = Array[(Long, Long)]

  /** The comparators, named as in the paper's tables: each consumes the
    * sorted edge array and returns one part per edge.
    */
  private val comparators: Seq[(String, (Edges, Int) => Array[Int])] =
    Seq(
      ("Rand.", HashPartitioners.random1D(_, _)),
      ("2D-R.", HashPartitioners.grid(_, _)),
      ("DBH", HashPartitioners.dbh(_, _)),
      ("Obli.", Oblivious.partition(_, _)),
      ("H.G.", HybridGinger.partition(_, _)),
      ("HDRF", HDRF.partition(_, _)),
      ("NE", (edges, p) => SequentialNE.partition(edges, SequentialNE.Config(p))),
      // SNE's buffer holds ~100 M edges in the original; every stand-in
      // fits in one buffer, so the faithful setting is a single chunk.
      // Smaller buffers (the memory/quality trade-off) are exercised in
      // unit tests.
      ("SNE", (edges, p) => SNE.partition(edges, p, chunkEdges = math.max(1, edges.length))),
      ("Sheep", Sheep.partition(_, _)),
      ("P.M.", vertexCut(MultilevelVertex.partition(_, _))),
      ("X.P.", vertexCut(LabelPropagation.xtrapulp(_, _))),
      ("Spinner", vertexCut(LabelPropagation.spinner(_, _))),
    )

  /** Every partitioner [[run]] accepts: D.NE and the comparators. */
  val methods: Seq[String] = "D.NE" +: comparators.map(_._1)

  /** A vertex partitioner evaluated as an edge partitioner (each edge goes
    * to one endpoint's partition, see [[VertexCutConversion]]).
    */
  private def vertexCut(vp: (Edges, Int) => VertexPartition): (Edges, Int) => Array[Int] =
    (edges, p) => VertexCutConversion.fromVertexPartition(vp(edges, p), edges)

  /** Collects an RDD assignment into aligned (edges, parts) arrays sorted by
    * edge, and unpersists the RDD.
    */
  private def collectAssign(rdd: RDD[(Long, Long, Int)]): (Array[(Long, Long)], Array[Int]) = {
    val triples = rdd.collect()
    rdd.unpersist(blocking = false)
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
      Seq(seconds), edges, assign)
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Runs the partitioner named `method` (one of [[methods]]) into `p`
    * parts. D.NE partitions `rdd` and is timed up to its collected
    * assignment; the comparators partition `edges`, which must hold the same
    * edges in sorted order.
    */
  def run(method: String, spark: SparkSession, rdd: RDD[(Long, Long)],
          edges: Array[(Long, Long)], p: Int): RunResult =
    if (method == "D.NE") {
      val ((es, as), s) = timed(collectAssign(
        DistributedNE.partition(spark, rdd, DistributedNE.Config(p)).assignments))
      metricsOf(method, es, as, s)
    } else {
      val f = comparators.collectFirst { case (`method`, f) => f }
        .getOrElse(throw new IllegalArgumentException(s"unknown partitioner: $method"))
      val (as, s) = timed(f(edges, p))
      metricsOf(method, edges, as, s)
    }

  /** Generates `spec`'s graph once and runs each of `methods` on it into `p`
    * parts, in order, `calls` times in a row each. Every call must give the
    * same assignment; the result holds each call's time.
    */
  def runAll(spark: SparkSession, spec: Datasets.GraphSpec, methods: Seq[String],
             p: Int, calls: Int = 1): Seq[RunResult] = {
    val rdd = spec.edges(spark).cache()
    val edges = rdd.collect()
    scala.util.Sorting.quickSort(edges)(Ordering.Tuple2[Long, Long])
    val results = methods.map { m =>
      val rs = Seq.fill(calls)(run(m, spark, rdd, edges, p))
      rs.foreach(r => require(r.assign.sameElements(rs.head.assign), s"$m: calls on ${spec.name} differ"))
      rs.head.copy(times = rs.flatMap(_.times))
    }
    rdd.unpersist(blocking = false)
    results
  }
}
