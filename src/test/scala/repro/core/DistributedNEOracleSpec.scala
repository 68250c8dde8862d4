package repro.core

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.LocalMetrics

/** DuckDB cross-checks of what one real Distributed NE run reports: DuckDB
  * SQL over the input and the collected assignment is the reference, and
  * the run's own numbers (its `Result` and `LocalMetrics` over its
  * assignment) are the values under test.
  */
class DistributedNEOracleSpec extends SparkSpec {

  private lazy val edges = TestGraphs.skewed(200, 1200, seed = 31)

  private lazy val (res, triples) = {
    val r = DistributedNE.partition(spark,
      spark.sparkContext.parallelize(edges.toSeq, 4), DistributedNE.Config(4))
    val ts = r.assignments.collect()
    r.assignments.unpersist(blocking = false)
    (r, ts)
  }

  private def tables = {
    import spark.implicits._
    Seq("input" -> edges.toSeq.toDF("u", "v"), "assign" -> triples.toSeq.toDF("u", "v", "part"))
  }

  test("ORACLE: every input edge appears exactly once in the assignment") {
    import spark.implicits._
    Oracle.assertEquivalent(Seq((1L, 1L, res.numEdges)).toDF("inputs", "n", "edges"),
      """SELECT inputs, n, COUNT(*) AS edges FROM (
        |  SELECT u, v, COUNT(*) - COUNT(part) AS inputs, COUNT(part) AS n FROM (
        |    SELECT u, v, NULL AS part FROM input
        |    UNION ALL
        |    SELECT u, v, part FROM assign
        |  ) GROUP BY u, v
        |) GROUP BY inputs, n""".stripMargin,
      tables: _*)
  }

  test("ORACLE: per-partition sizes from SQL match DuckDB") {
    val assign = tables.toMap.apply("assign")
    val sizes = assign.groupBy("part").count().withColumnRenamed("count", "edges")
    Oracle.assertEquivalent(sizes,
      "SELECT part, COUNT(*) AS edges FROM assign GROUP BY part",
      tables: _*)
  }

  test("ORACLE: Result.partitionSizes match DuckDB's per-partition edge counts") {
    import spark.implicits._
    val sizes = res.partitionSizes.toSeq.zipWithIndex.map { case (n, p) => (p, n) }
    Oracle.assertEquivalent(sizes.toDF("part", "edges"),
      "SELECT part, COUNT(*) AS edges FROM assign GROUP BY part",
      tables: _*)
  }

  test("ORACLE: LocalMetrics replica count and RF match DuckDB") {
    import spark.implicits._
    val rf = LocalMetrics.replicationFactor(triples)
    val replicas = math.round(rf * LocalMetrics.numVertices(edges))
    Oracle.assertEquivalent(Seq((replicas, rf)).toDF("replicas", "rf"),
      """WITH reps AS (
        |  SELECT DISTINCT part, u AS x FROM assign
        |  UNION
        |  SELECT DISTINCT part, v AS x FROM assign
        |), verts AS (
        |  SELECT u AS x FROM input UNION SELECT v AS x FROM input
        |)
        |SELECT COUNT(*) AS replicas,
        |       CAST(COUNT(*) AS DOUBLE) / (SELECT COUNT(*) FROM verts) AS rf
        |FROM reps""".stripMargin,
      tables: _*)
  }
}
