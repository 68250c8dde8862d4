package repro.baselines

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, Grid2D, LocalMetrics}

class HashPartitionersSpec extends SparkSpec {

  private def rddOf(edges: Array[(Long, Long)]) =
    spark.sparkContext.parallelize(edges.toSeq, 4)

  private val skewedEdges = TestGraphs.skewed(500, 4000)

  private def collectTriples(rdd: org.apache.spark.rdd.RDD[(Long, Long, Int)]) =
    rdd.collect().sortBy(t => (t._1, t._2))

  test("random1D covers every edge with an in-range partition") {
    val t = collectTriples(HashPartitioners.random1D(rddOf(skewedEdges), 8))
    assert(t.length == skewedEdges.length)
    t.foreach(x => assert(x._3 >= 0 && x._3 < 8))
  }

  test("random1D is deterministic and near-perfectly balanced") {
    val a = collectTriples(HashPartitioners.random1D(rddOf(skewedEdges), 8))
    val b = collectTriples(HashPartitioners.random1D(rddOf(skewedEdges), 8))
    assert(a.toSeq == b.toSeq)
    assert(LocalMetrics.edgeBalance(a) < 1.2)
  }

  test("grid assigns each edge to its Grid2D cell") {
    val g = Grid2D.forPartitions(16)
    val t = collectTriples(HashPartitioners.grid(rddOf(skewedEdges), 16))
    t.foreach { case (u, v, p) => assert(p == g.cellOf(u, v)) }
  }

  test("grid confines each vertex to at most rows+cols-1 partitions") {
    val g = Grid2D.forPartitions(16)
    val t = collectTriples(HashPartitioners.grid(rddOf(skewedEdges), 16))
    val partsOf = t.flatMap { case (u, v, p) => Seq((u, p), (v, p)) }
      .groupBy(_._1).view.mapValues(_.map(_._2).distinct.length)
    partsOf.foreach { case (v, k) =>
      assert(k <= g.rows + g.cols - 1, s"vertex $v spread over $k > ${g.rows + g.cols - 1} cells")
    }
  }

  test("grid beats random1D on replication factor for a skewed graph") {
    val rdd = rddOf(skewedEdges)
    val rf1 = LocalMetrics.replicationFactor(collectTriples(HashPartitioners.random1D(rdd, 16)))
    val rf2 = LocalMetrics.replicationFactor(collectTriples(HashPartitioners.grid(rdd, 16)))
    assert(rf2 < rf1, s"grid RF $rf2 should beat random RF $rf1")
  }

  test("dbh beats random1D on replication factor for a skewed graph") {
    val rdd = rddOf(skewedEdges)
    val rf1 = LocalMetrics.replicationFactor(collectTriples(HashPartitioners.random1D(rdd, 16)))
    val rfD = LocalMetrics.replicationFactor(collectTriples(HashPartitioners.dbh(rdd, 16)))
    assert(rfD < rf1, s"DBH RF $rfD should beat random RF $rf1")
  }

  test("dbh groups a low-degree vertex's edges on one partition") {
    // star: center has degree n, each leaf degree 1 → all edges hash by leaf?
    // no — leaves are the low-degree endpoints, each hashing separately;
    // instead check a path pendant: vertex 0 in path(2) has degree 1 and its
    // single edge follows h(0) regardless of the neighbor.
    val edges: Array[(Long, Long)] = Array((0L, 1L), (1L, 2L))
    val t = collectTriples(HashPartitioners.dbh(rddOf(edges), 4))
    assert(t.length == 2)
    // endpoints 0 and 2 have degree 1 < degree(1)=2, so they are the pivots
    assert(t.forall(x => x._3 >= 0 && x._3 < 4))
  }

  test("degrees matches a driver-side count") {
    val deg = HashPartitioners.degrees(rddOf(TestGraphs.twoTriangles)).collect().toMap
    assert(deg == Map(0L -> 2, 1L -> 2, 2L -> 3, 3L -> 3, 4L -> 2, 5L -> 2))
  }

  test("withDegrees annotates both endpoints correctly") {
    val rows = HashPartitioners.withDegrees(rddOf(TestGraphs.star(4))).collect()
    rows.foreach { case (u, v, du, dv) =>
      if (u == 0L) assert(du == 4) else assert(du == 1)
      if (v == 0L) assert(dv == 4) else assert(dv == 1)
    }
  }

  test("random1D on an RMAT graph has RF close to min(mean degree, P) regime") {
    val edges = GraphGen.rmat(spark, 10, 8, seed = 4).collect()
    val t = collectTriples(HashPartitioners.random1D(rddOf(edges), 64))
    val rf = LocalMetrics.replicationFactor(t)
    assert(rf > 1.5, "random hashing of a dense-ish graph must replicate heavily")
  }
}
