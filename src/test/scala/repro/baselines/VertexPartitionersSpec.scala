package repro.baselines

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalMetrics}

/** Covers Sheep, the multilevel (ParMETIS-like) partitioner, the LP
  * partitioners (Spinner / XtraPuLP-like), and the vertex→edge conversion.
  */
class VertexPartitionersSpec extends SparkSpec {

  private lazy val road = GraphGen.roadLattice(spark, 50, 50, seed = 3).collect()
  private lazy val skewed = TestGraphs.skewed(500, 3500)

  private def rfOf(edges: Array[(Long, Long)], assign: Array[Int]): Double =
    LocalMetrics.replicationFactor(TestGraphs.triples(edges, assign))

  // ---- Sheep ----

  test("sheep covers every edge in range, deterministically") {
    val a = Sheep.partition(skewed, 8)
    val b = Sheep.partition(skewed, 8)
    assert(a.length == skewed.length && a.toSeq == b.toSeq)
    a.foreach(x => assert(x >= 0 && x < 8))
  }

  test("sheep is near-perfect on a road lattice (paper Table 6: RF ≈ 1.03)") {
    val rf = rfOf(road, Sheep.partition(road, 8))
    assert(rf < 1.5, s"sheep road RF should approach 1, got $rf")
  }

  test("sheep beats random on the road lattice by a wide margin") {
    val rfS = rfOf(road, Sheep.partition(road, 8))
    val rfR = rfOf(road, TestGraphs.randomAssign(road, 8))
    assert(rfS < rfR / 1.5, s"sheep $rfS vs random $rfR")
  }

  test("sheep on a path produces contiguous chunks (tree = path)") {
    val edges = TestGraphs.path(63)
    val a = Sheep.partition(edges, 4)
    val rf = rfOf(edges, a)
    assert(rf < 1.25, s"path RF should be near 1, got $rf")
  }

  test("sheep single-partition degenerates gracefully") {
    val a = Sheep.partition(TestGraphs.k4, 1)
    assert(a.forall(_ == 0))
  }

  // ---- Multilevel (ParMETIS-like) ----

  test("multilevel labels every vertex with an in-range partition") {
    val vp = MultilevelVertex.partition(road, 8)
    assert(vp.labels.length == vp.graph.numVertices)
    vp.labels.foreach(l => assert(l >= 0 && l < 8))
  }

  test("multilevel is near-perfect on the road lattice after conversion") {
    val vp = MultilevelVertex.partition(road, 8)
    val rf = rfOf(road, VertexCutConversion.fromVertexPartition(vp, road))
    assert(rf < 1.6, s"multilevel road RF should be near 1, got $rf")
  }

  test("multilevel keeps vertex balance under its constraint") {
    val vp = MultilevelVertex.partition(road, 8)
    val counts = vp.labels.groupBy(identity).view.mapValues(_.length).values.toSeq
    val mean = counts.sum.toDouble / counts.size
    assert(counts.max / mean < 1.8, s"vertex balance too loose: max=${counts.max} mean=$mean")
  }

  test("multilevel is deterministic") {
    val a = MultilevelVertex.partition(road, 4).labels.toSeq
    val b = MultilevelVertex.partition(road, 4).labels.toSeq
    assert(a == b)
  }

  // ---- Label propagation (Spinner / XtraPuLP-like) ----

  test("spinner labels everything in range and deterministically") {
    val vp = LabelPropagation.spinner(skewed, 8)
    vp.labels.foreach(l => assert(l >= 0 && l < 8))
    assert(vp.labels.toSeq == LabelPropagation.spinner(skewed, 8).labels.toSeq)
  }

  test("xtrapulp labels everything in range (BFS seeds cover components)") {
    val vp = LabelPropagation.xtrapulp(skewed, 8)
    assert(vp.labels.forall(l => l >= 0 && l < 8))
  }

  test("xtrapulp on road lattice: conversion RF far better than random") {
    val vp = LabelPropagation.xtrapulp(road, 8)
    val rf = rfOf(road, VertexCutConversion.fromVertexPartition(vp, road))
    val rfR = rfOf(road, TestGraphs.randomAssign(road, 8))
    assert(rf < rfR, s"XtraPuLP-like $rf should beat random $rfR on roads")
  }

  test("xtrapulp beats spinner's random init on the road lattice") {
    val rfX = rfOf(road, VertexCutConversion.fromVertexPartition(
      LabelPropagation.xtrapulp(road, 8), road))
    val rfS = rfOf(road, VertexCutConversion.fromVertexPartition(
      LabelPropagation.spinner(road, 8, iterations = 3), road))
    assert(rfX <= rfS + 1e-9, s"BFS-seeded LP ($rfX) vs randomly-seeded LP ($rfS)")
  }

  test("lp handles a disconnected graph (restart seeds reach all components)") {
    val vp = LabelPropagation.xtrapulp(TestGraphs.twoTriangles, 2)
    assert(vp.labels.length == 6)
    vp.labels.foreach(l => assert(l >= 0 && l < 2))
  }

  // ---- vertex→edge conversion ----

  test("conversion assigns every edge one of its endpoints' labels") {
    val vp = LabelPropagation.spinner(skewed, 8)
    def label(x: Long): Int = vp.labels(vp.graph.localId(x))
    val assign = VertexCutConversion.fromVertexPartition(vp, skewed)
    skewed.indices.foreach { i =>
      val (u, v) = skewed(i)
      assert(assign(i) == label(u) || assign(i) == label(v),
        s"edge ($u,$v) assigned ${assign(i)} but labels are ${label(u)}/${label(v)}")
    }
  }

  test("conversion is deterministic in its seed") {
    val vp = LabelPropagation.spinner(skewed, 8)
    val a = VertexCutConversion.fromVertexPartition(vp, skewed)
    val b = VertexCutConversion.fromVertexPartition(vp, skewed)
    assert(a.toSeq == b.toSeq)
  }

  test("conversion of a same-label edge keeps that label") {
    val edges: Array[(Long, Long)] = Array((0L, 1L))
    val a = VertexCutConversion.toEdgePartition(edges, _ => 3)
    assert(a.toSeq == Seq(3))
  }
}
