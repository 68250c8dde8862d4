package repro.graph

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.apps.GasEngine

/** The program's partition metrics and per-partition counts, checked on
  * small graphs by hand and against DuckDB SQL over the same assignment.
  */
class MetricsSpec extends SparkSpec {
  import repro.TestGraphs.triples

  private def assignDF(ts: Array[(Long, Long, Int)]) = {
    import spark.implicits._
    ts.toSeq.toDF("u", "v", "part")
  }

  /** One row per partition: `(part, <column>)`. */
  private def perPart(column: String, counts: Array[Long]) = {
    import spark.implicits._
    counts.toSeq.zipWithIndex.map { case (n, p) => (p, n) }.toDF("part", column)
  }

  test("numVertices counts V(E), not the id space") {
    assert(LocalMetrics.numVertices(Array((1L, 5L), (5L, 9L))) == 3)
  }

  test("RF is 1.0 when every vertex lives in one partition") {
    val ts = triples(TestGraphs.twoTriangles,
      Array(0, 0, 0, 1, 1, 1, 0)) // bridge (2,3) on part 0 replicates 3
    // vertices: 0,1,2 in p0; 3,4,5 in p1; edge (2,3)→p0 adds replica of 3
    val rf = LocalMetrics.replicationFactor(ts)
    assert(math.abs(rf - 7.0 / 6.0) < 1e-9)
  }

  test("RF of an all-one-partition assignment is exactly 1") {
    val ts = triples(TestGraphs.k4, Array.fill(TestGraphs.k4.length)(0))
    assert(LocalMetrics.replicationFactor(ts) == 1.0)
  }

  test("ORACLE: LocalMetrics RF/EB/VB match DuckDB") {
    import spark.implicits._
    val edges = TestGraphs.skewed(200, 800)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 8))
    val local = Seq((LocalMetrics.replicationFactor(ts), LocalMetrics.edgeBalance(ts),
      LocalMetrics.vertexBalance(ts)))
    Oracle.assertEquivalent(local.toDF("rf", "eb", "vb"),
      """WITH reps AS (
        |  SELECT DISTINCT part, u AS x FROM assign
        |  UNION
        |  SELECT DISTINCT part, v AS x FROM assign
        |), verts AS (
        |  SELECT u AS x FROM assign UNION SELECT v AS x FROM assign
        |), e AS (
        |  SELECT part, COUNT(*) AS n FROM assign GROUP BY part
        |), r AS (
        |  SELECT part, COUNT(*) AS n FROM reps GROUP BY part
        |)
        |SELECT CAST((SELECT COUNT(*) FROM reps) AS DOUBLE) / (SELECT COUNT(*) FROM verts) AS rf,
        |       (SELECT MAX(n) / AVG(n) FROM e) AS eb,
        |       (SELECT MAX(n) / AVG(n) FROM r) AS vb""".stripMargin,
      "assign" -> assignDF(ts))
  }

  test("LocalMetrics RF counts exact (vertex, part) replicas for large ids") {
    // a Long key u·131071 + p wraps both replicas below to 0
    val ts = Array((0L, 5L, 0), (2251816993685505L, 7L, 1))
    assert(LocalMetrics.replicationFactor(ts) == 1.0)
  }

  test("ORACLE: replica count matches DuckDB over the same assignment") {
    val edges = TestGraphs.skewed(100, 300)
    val assign = TestGraphs.randomAssign(edges, 4)
    Oracle.assertEquivalent(perPart("replicas", new GasEngine(edges, assign, 4).replicasPerPart),
      """SELECT part, COUNT(*) AS replicas FROM (
        |  SELECT DISTINCT part, u AS x FROM assign
        |  UNION
        |  SELECT DISTINCT part, v AS x FROM assign
        |) GROUP BY part""".stripMargin,
      "assign" -> assignDF(triples(edges, assign)))
  }

  test("ORACLE: per-partition edge counts match DuckDB") {
    val edges = TestGraphs.skewed(150, 500, seed = 11)
    val assign = TestGraphs.randomAssign(edges, 8)
    Oracle.assertEquivalent(perPart("edges", new GasEngine(edges, assign, 8).edgesPerPart),
      "SELECT part, COUNT(*) AS edges FROM assign GROUP BY part",
      "assign" -> assignDF(triples(edges, assign)))
  }

  test("ORACLE: degree table matches DuckDB") {
    import spark.implicits._
    val edges = TestGraphs.skewed(80, 250, seed = 5)
    val g = LocalGraph.build(edges)
    val degrees = (0 until g.numVertices).map(lv => (g.vertexIds(lv), g.degree(lv)))
    Oracle.assertEquivalent(degrees.toDF("x", "degree"),
      """SELECT x, COUNT(*) AS degree FROM (
        |  SELECT u AS x FROM edges UNION ALL SELECT v AS x FROM edges
        |) GROUP BY x""".stripMargin,
      "edges" -> edges.toSeq.toDF("u", "v"))
  }

  test("edgeBalance of a perfectly even assignment is 1") {
    val edges = TestGraphs.path(16)
    val assign = edges.indices.map(_ % 4).toArray
    assert(LocalMetrics.edgeBalance(triples(edges, assign)) == 1.0)
  }

  test("edgeBalance detects imbalance") {
    val edges = TestGraphs.path(10)
    val assign = Array.fill(edges.length)(0)
    assign(0) = 1 // 9 vs 1 on two used partitions
    val eb = LocalMetrics.edgeBalance(triples(edges, assign))
    assert(math.abs(eb - 1.8) < 1e-9) // max 9 / mean 5
  }

  test("replicationFactor rejects an empty graph") {
    intercept[IllegalArgumentException](LocalMetrics.replicationFactor(Array.empty[(Long, Long, Int)]))
  }
}
