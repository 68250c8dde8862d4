package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

class MetricsSpec extends SparkSpec {
  import repro.TestGraphs.triples

  private def assignDF(ts: Array[(Long, Long, Int)]) = {
    import spark.implicits._
    ts.toSeq.toDF("u", "v", "part")
  }

  test("numVertices counts V(E), not the id space") {
    import spark.implicits._
    val edges = Seq((1L, 5L), (5L, 9L)).toDF("u", "v")
    assert(Metrics.numVertices(edges) == 3)
  }

  test("RF is 1.0 when every vertex lives in one partition") {
    val ts = triples(TestGraphs.twoTriangles,
      Array(0, 0, 0, 1, 1, 1, 0)) // bridge (2,3) on part 0 replicates 3
    // vertices: 0,1,2 in p0; 3,4,5 in p1; edge (2,3)→p0 adds replica of 3
    val rf = Metrics.replicationFactor(assignDF(ts))
    assert(math.abs(rf - 7.0 / 6.0) < 1e-9)
  }

  test("RF of an all-one-partition assignment is exactly 1") {
    val ts = triples(TestGraphs.k4, Array.fill(TestGraphs.k4.length)(0))
    assert(Metrics.replicationFactor(assignDF(ts)) == 1.0)
  }

  test("RF/EB/VB agree with the driver-side LocalMetrics twins") {
    val edges = TestGraphs.skewed(200, 800)
    val assign = TestGraphs.randomAssign(edges, 8)
    val ts = triples(edges, assign)
    val df = assignDF(ts)
    assert(math.abs(Metrics.replicationFactor(df) - LocalMetrics.replicationFactor(ts)) < 1e-9)
    assert(math.abs(Metrics.edgeBalance(df) - LocalMetrics.edgeBalance(ts)) < 1e-9)
    assert(math.abs(Metrics.vertexBalance(df) - LocalMetrics.vertexBalance(ts)) < 1e-9)
  }

  test("LocalMetrics RF counts exact (vertex, part) replicas for large ids") {
    // a Long key u·131071 + p wraps both replicas below to 0
    val ts = Array((0L, 5L, 0), (2251816993685505L, 7L, 1))
    assert(LocalMetrics.replicationFactor(ts) == 1.0)
    assert(Metrics.replicationFactor(assignDF(ts)) == 1.0)
  }

  test("ORACLE: replica count matches DuckDB over the same assignment") {
    val edges = TestGraphs.skewed(100, 300)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 4))
    val df = assignDF(ts)
    val sparkReplicas = Metrics.replicas(df).groupBy("part")
      .count().withColumnRenamed("count", "replicas")
      .orderBy("part")
    Oracle.assertEquivalent(
      sparkReplicas,
      """SELECT part, COUNT(*) AS replicas FROM (
        |  SELECT DISTINCT part, u AS x FROM assign
        |  UNION
        |  SELECT DISTINCT part, v AS x FROM assign
        |) GROUP BY part ORDER BY part""".stripMargin,
      "assign" -> df)
  }

  test("ORACLE: per-partition edge counts match DuckDB") {
    val edges = TestGraphs.skewed(150, 500, seed = 11)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 8))
    val df = assignDF(ts)
    val counts = df.groupBy("part").agg(count(lit(1)) as "edges").orderBy("part")
    Oracle.assertEquivalent(counts,
      "SELECT part, COUNT(*) AS edges FROM assign GROUP BY part ORDER BY part",
      "assign" -> df)
  }

  test("ORACLE: degree table matches DuckDB") {
    import spark.implicits._
    val edges = TestGraphs.skewed(80, 250, seed = 5)
    val df = edges.toSeq.toDF("u", "v")
    val degrees = df.select($"u" as "x").union(df.select($"v" as "x"))
      .groupBy("x").agg(count(lit(1)) as "degree")
    Oracle.assertEquivalent(degrees,
      """SELECT x, COUNT(*) AS degree FROM (
        |  SELECT u AS x FROM edges UNION ALL SELECT v AS x FROM edges
        |) GROUP BY x""".stripMargin,
      "edges" -> df)
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

  test("summary packs all metrics consistently") {
    val edges = TestGraphs.skewed(100, 400, seed = 2)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 4))
    val s = Metrics.summary(assignDF(ts))
    assert(s.numEdges == edges.length)
    assert(s.numParts == ts.map(_._3).distinct.length)
    assert(s.replicationFactor >= 1.0)
    assert(s.edgeBalance >= 1.0 && s.vertexBalance >= 1.0)
  }

  test("replicationFactor rejects an empty graph") {
    import spark.implicits._
    val empty = Seq.empty[(Long, Long, Int)].toDF("u", "v", "part")
    intercept[IllegalArgumentException](Metrics.replicationFactor(empty))
  }
}
