package repro.baselines

import repro.{SparkSpec, TestGraphs}
import repro.TestGraphs.triples
import repro.graph.{GraphGen, Grid2D, LocalMetrics}

class HashPartitionersSpec extends SparkSpec {

  private val skewedEdges = TestGraphs.skewed(500, 4000)

  test("random1D covers every edge with an in-range partition") {
    val t = triples(skewedEdges, HashPartitioners.random1D(skewedEdges, 8))
    assert(t.length == skewedEdges.length)
    t.foreach(x => assert(x._3 >= 0 && x._3 < 8))
  }

  test("random1D is deterministic and near-perfectly balanced") {
    val a = triples(skewedEdges, HashPartitioners.random1D(skewedEdges, 8))
    val b = triples(skewedEdges, HashPartitioners.random1D(skewedEdges, 8))
    assert(a.toSeq == b.toSeq)
    assert(LocalMetrics.edgeBalance(a) < 1.2)
  }

  test("grid assigns each edge to its Grid2D cell") {
    val g = Grid2D.forPartitions(16)
    val t = triples(skewedEdges, HashPartitioners.grid(skewedEdges, 16))
    t.foreach { case (u, v, p) => assert(p == g.cellOf(u, v)) }
  }

  test("grid confines each vertex to at most rows+cols-1 partitions") {
    val g = Grid2D.forPartitions(16)
    val t = triples(skewedEdges, HashPartitioners.grid(skewedEdges, 16))
    val partsOf = t.flatMap { case (u, v, p) => Seq((u, p), (v, p)) }
      .groupBy(_._1).view.mapValues(_.map(_._2).distinct.length)
    partsOf.foreach { case (v, k) =>
      assert(k <= g.rows + g.cols - 1, s"vertex $v spread over $k > ${g.rows + g.cols - 1} cells")
    }
  }

  test("grid beats random1D on replication factor for a skewed graph") {
    val rf1 = LocalMetrics.replicationFactor(triples(skewedEdges, HashPartitioners.random1D(skewedEdges, 16)))
    val rf2 = LocalMetrics.replicationFactor(triples(skewedEdges, HashPartitioners.grid(skewedEdges, 16)))
    assert(rf2 < rf1, s"grid RF $rf2 should beat random RF $rf1")
  }

  test("dbh beats random1D on replication factor for a skewed graph") {
    val rf1 = LocalMetrics.replicationFactor(triples(skewedEdges, HashPartitioners.random1D(skewedEdges, 16)))
    val rfD = LocalMetrics.replicationFactor(triples(skewedEdges, HashPartitioners.dbh(skewedEdges, 16)))
    assert(rfD < rf1, s"DBH RF $rfD should beat random RF $rf1")
  }

  test("dbh groups a low-degree vertex's edges on one partition") {
    // two 40-leaf stars on hubs 1000 and 2000; each x < 50 joins both hubs,
    // so x (degree 2) is the low-degree end of both its edges and both
    // follow h(x), wherever the hubs hash
    val hubs = Seq(1000L, 2000L)
    val stars = hubs.flatMap(h => (1 to 40).map(i => (h, h + i)))
    val edges = (stars ++ (0L until 50L).flatMap(x => hubs.map(h => (x, h)))).toArray
    val part = edges.zip(HashPartitioners.dbh(edges, 16)).toMap
    (0L until 50L).foreach { x =>
      assert(part((x, 1000L)) == part((x, 2000L)), s"vertex $x's edges split")
    }
  }

  test("random1D on an RMAT graph has RF close to min(mean degree, P) regime") {
    val edges = GraphGen.rmat(spark, 10, 8, seed = 4).collect()
    val t = triples(edges, HashPartitioners.random1D(edges, 64))
    val rf = LocalMetrics.replicationFactor(t)
    assert(rf > 1.5, "random hashing of a dense-ish graph must replicate heavily")
  }
}
