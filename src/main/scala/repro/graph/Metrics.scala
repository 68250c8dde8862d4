package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Partition-quality metrics from §2 and §7.6 of the paper, computed with
  * Catalyst over the assignment DataFrame `(u, v, part)`.
  *
  * Definitions (paper Eq. 1 and §7.6):
  *  - replication factor  RF = (1/|V|) Σ_p |V(E_p)|
  *  - edge balance        EB = max_p |E_p| / mean_p |E_p|
  *  - vertex balance      VB = max_p |V(E_p)| / mean_p |V(E_p)|
  * with |V| = |V(E)| (vertices incident to at least one edge).
  *
  * Tests verify these aggregations against DuckDB via the test-only `repro.Oracle`.
  */
object Metrics {

  final case class Summary(numVertices: Long, numEdges: Long, numParts: Long,
                           replicationFactor: Double, edgeBalance: Double,
                           vertexBalance: Double)

  /** Vertices incident to at least one edge. */
  def numVertices(edges: DataFrame): Long =
    edges.select(col("u") as "x").union(edges.select(col("v") as "x"))
      .distinct().count()

  /** `(part, vertex)` replica pairs — the unit RF counts. */
  def replicas(assign: DataFrame): DataFrame =
    assign.select(col("part"), col("u") as "x")
      .union(assign.select(col("part"), col("v") as "x"))
      .distinct()

  def replicationFactor(assign: DataFrame): Double = {
    val nV = numVertices(assign.select("u", "v"))
    require(nV > 0, "empty graph has no replication factor")
    replicas(assign).count().toDouble / nV
  }

  def edgeBalance(assign: DataFrame): Double =
    balance(assign.groupBy("part").count())

  def vertexBalance(assign: DataFrame): Double =
    balance(replicas(assign).groupBy("part").count())

  /** max/mean over the per-partition `count` column. */
  private def balance(counts: DataFrame): Double = {
    val row = counts.agg(max("count") as "mx", avg("count") as "mean").head()
    val mx = row.getLong(0).toDouble
    val mean = row.getDouble(1)
    if (mean == 0) 1.0 else mx / mean
  }

  def summary(assign: DataFrame): Summary = {
    val nE = assign.count()
    val nV = numVertices(assign.select("u", "v"))
    val nP = assign.select("part").distinct().count()
    Summary(nV, nE, nP, replicationFactor(assign), edgeBalance(assign),
            vertexBalance(assign))
  }

  /** Assignment triples as a DataFrame — the common exchange format. */
  def assignmentDF(spark: SparkSession,
                   assign: org.apache.spark.rdd.RDD[(Long, Long, Int)]): DataFrame = {
    import spark.implicits._
    assign.toDF("u", "v", "part")
  }
}

/** Driver-side twins of [[Metrics]] for the sequential baselines and for
  * property tests on small graphs (no Spark job per ScalaCheck sample).
  */
object LocalMetrics {

  def numVertices(edges: Array[(Long, Long)]): Long = {
    val s = new java.util.HashSet[Long]()
    edges.foreach { case (u, v) => s.add(u); s.add(v) }
    s.size.toLong
  }

  def replicationFactor(assign: Array[(Long, Long, Int)]): Double = {
    val reps = new java.util.HashSet[(Long, Int)]()
    val verts = new java.util.HashSet[Long]()
    assign.foreach { case (u, v, p) =>
      reps.add((u, p)); reps.add((v, p))
      verts.add(u); verts.add(v)
    }
    require(verts.size > 0, "empty graph has no replication factor")
    reps.size.toDouble / verts.size
  }

  def edgeBalance(assign: Array[(Long, Long, Int)]): Double = {
    val counts = assign.groupBy(_._3).map(_._2.length.toDouble)
    if (counts.isEmpty) 1.0 else counts.max / (counts.sum / counts.size)
  }

  def vertexBalance(assign: Array[(Long, Long, Int)]): Double = {
    val perPart = assign.groupBy(_._3).map { case (_, es) =>
      val s = new java.util.HashSet[Long]()
      es.foreach { case (u, v, _) => s.add(u); s.add(v) }
      s.size.toDouble
    }
    if (perPart.isEmpty) 1.0 else perPart.max / (perPart.sum / perPart.size)
  }
}
