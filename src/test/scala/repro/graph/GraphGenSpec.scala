package repro.graph

import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  private def checkCanonical(edges: Array[(Long, Long)]): Unit = {
    edges.foreach { case (u, v) => assert(u < v, s"non-canonical edge ($u,$v)") }
    assert(edges.toSet.size == edges.length, "duplicate edges survived canonicalization")
  }

  test("canonicalize drops self-loops, orders endpoints, dedupes") {
    val raw = spark.sparkContext.parallelize(Seq((1L, 2L), (2L, 1L), (3L, 3L), (1L, 2L), (5L, 4L)))
    val out = GraphGen.canonicalize(raw).collect().sorted
    assert(out.toSeq == Seq((1L, 2L), (4L, 5L)))
  }

  test("rmat is deterministic in its seed") {
    val a = GraphGen.rmat(spark, scale = 10, edgeFactor = 4, seed = 5).collect().sorted.toSeq
    val b = GraphGen.rmat(spark, scale = 10, edgeFactor = 4, seed = 5).collect().sorted.toSeq
    val c = GraphGen.rmat(spark, scale = 10, edgeFactor = 4, seed = 6).collect().sorted.toSeq
    assert(a == b)
    assert(a != c)
  }

  test("rmat produces canonical edges within the id space") {
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 4, seed = 5).collect()
    checkCanonical(edges)
    edges.foreach { case (u, v) =>
      assert(u >= 0 && v < (1L << 10), s"vertex id out of range in ($u,$v)")
    }
  }

  test("rmat edge count is near the nominal count (minus dedup/self-loops)") {
    val edges = GraphGen.rmat(spark, scale = 12, edgeFactor = 8, seed = 5).count()
    val nominal = (1L << 12) * 8
    assert(edges > nominal / 2 && edges <= nominal, s"got $edges of nominal $nominal")
  }

  test("rmat with default quadrants is skewed: top vertex way above mean degree") {
    val edges = GraphGen.rmat(spark, scale = 12, edgeFactor = 8, seed = 5).collect()
    val deg = edges.flatMap { case (u, v) => Seq(u, v) }.groupBy(identity).map(_._2.length)
    val mean = deg.sum.toDouble / deg.size
    assert(deg.max > 10 * mean, s"max degree ${deg.max} not skewed vs mean $mean")
  }

  test("rmat rejects invalid quadrant probabilities and scales") {
    intercept[IllegalArgumentException](GraphGen.rmat(spark, 10, 4, 1, a = 0.6, b = 0.3, c = 0.3))
    intercept[IllegalArgumentException](GraphGen.rmat(spark, 0, 4, 1))
  }

  test("powerLaw degree distribution is heavy-tailed") {
    val edges = GraphGen.powerLaw(spark, 1 << 12, 16000, alpha = 2.2, seed = 9).collect()
    checkCanonical(edges)
    val deg = edges.flatMap { case (u, v) => Seq(u, v) }.groupBy(identity).map(_._2.length).toSeq
    val mean = deg.sum.toDouble / deg.size
    assert(deg.max > 8 * mean, s"power-law not skewed: max=${deg.max} mean=$mean")
    // most vertices have low degree
    assert(deg.count(_ <= math.ceil(mean) * 2).toDouble / deg.size > 0.6)
  }

  test("powerLaw is deterministic and respects the vertex-id space") {
    val a = GraphGen.powerLaw(spark, 1000, 3000, 2.5, seed = 1).collect().sorted.toSeq
    val b = GraphGen.powerLaw(spark, 1000, 3000, 2.5, seed = 1).collect().sorted.toSeq
    assert(a == b)
    a.foreach { case (u, v) => assert(u >= 0 && v < 1000) }
  }

  test("powerLaw rejects alpha <= 2") {
    intercept[IllegalArgumentException](
      GraphGen.powerLaw(spark, 100, 100, alpha = 2.0, seed = 1).count())
  }

  test("roadLattice has lattice shape: mean degree between 2 and 5, no skew") {
    val edges = GraphGen.roadLattice(spark, 40, 50, seed = 3).collect()
    checkCanonical(edges)
    val deg = edges.flatMap { case (u, v) => Seq(u, v) }.groupBy(identity).map(_._2.length).toSeq
    val mean = deg.sum.toDouble / deg.size
    assert(mean > 2.0 && mean < 5.0, s"unexpected road mean degree $mean")
    assert(deg.max <= 12, s"road network should not be skewed, max=${deg.max}")
  }

  test("roadLattice grid core: interior vertex count matches rows*cols") {
    val n = GraphGen.roadLattice(spark, 20, 30, seed = 3, shortcutFraction = 0.0)
    val verts = n.collect().flatMap { case (u, v) => Seq(u, v) }.distinct
    assert(verts.length == 20 * 30)
    // pure lattice edge count: r(c-1) + c(r-1)
    assert(n.count() == 20 * 29 + 30 * 19)
  }

  test("communityGraph builds the requested communities plus bridges") {
    val edges = GraphGen.communityGraph(spark, nCommunities = 4, scalePerCommunity = 7,
      edgeFactor = 4, bridgesPerCommunity = 8, seed = 1).collect()
    checkCanonical(edges)
    val commSize = 1L << 7
    def commOf(x: Long): Long = x / commSize
    val intra = edges.count { case (u, v) => commOf(u) == commOf(v) }
    assert(intra.toDouble / edges.length > 0.8, "communities should dominate the edge mass")
    assert(edges.exists { case (u, v) => commOf(u) != commOf(v) }, "expected bridge edges")
  }
}
