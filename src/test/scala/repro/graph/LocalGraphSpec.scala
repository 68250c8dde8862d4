package repro.graph

import org.scalacheck.{Arbitrary, Gen, Test}
import org.scalacheck.Prop.forAll
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class LocalGraphSpec extends AnyFunSuite {

  test("local ids follow first appearance, source before destination") {
    val g = LocalGraph.build(Array((7L, 3L), (3L, 9L), (9L, 7L)))
    assert(g.vertexIds.toSeq == Seq(7L, 3L, 9L))
    assert(g.lsrc.toSeq == Seq(0, 1, 2) && g.ldst.toSeq == Seq(1, 2, 0))
    assert((0 until g.numVertices).forall(lv => g.localId(g.vertexIds(lv)) == lv))
  }

  test("localId of an absent vertex is -1") {
    val g = LocalGraph.build(TestGraphs.k4)
    assert(g.localId(42L) == -1)
    assert(LocalGraph.build(Array.empty).localId(0L) == -1)
  }

  test("the index holds ids at the Long limits and ids equal in their low bits") {
    val extremes = Seq(Long.MinValue, Long.MaxValue, -1L, 0L)
    // 5000 ids whose low 32 bits are all equal: enough to fill long probe runs
    val highOnly = (1L to 5000L).map(_ << 32)
    val ids = extremes ++ highOnly
    val g = LocalGraph.build(ids.zip(ids.tail).toArray)
    assert(g.vertexIds.toSeq == ids)
    ids.indices.foreach(lv => assert(g.localId(ids(lv)) == lv, s"id ${ids(lv)}"))
    Seq(Long.MinValue + 1, Long.MaxValue - 1, -2L, 1L, 5001L << 32, (1L << 32) + 1)
      .foreach(x => assert(g.localId(x) == -1, s"absent id $x"))
  }

  test("localId inverts vertexIds over random id sets") {
    val id: Gen[Long] = Gen.frequency(
      6 -> Arbitrary.arbitrary[Long],
      1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, -1L, 0L),
      1 -> Gen.choose(-64L, 64L).map(_ << 40))
    val prop = forAll(Gen.listOf(id), id) { (xs, probe) =>
      val ids = xs.distinct
      // a path through the ids; one id alone gets a self-loop
      val edges = (if (ids.length == 1) Seq((ids.head, ids.head)) else ids.zip(ids.drop(1))).toArray
      val g = LocalGraph.build(edges)
      g.vertexIds.toSeq == ids &&
        ids.indices.forall(lv => g.localId(g.vertexIds(lv)) == lv) &&
        g.localId(probe) == ids.indexOf(probe)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result)
  }

  test("adjacency lists every incident edge in edge order, and other walks it") {
    val g = LocalGraph.build(TestGraphs.star(4))
    val hub = g.localId(0L)
    assert(g.degree(hub) == 4)
    val hubEdges = (g.adjOff(hub) until g.adjOff(hub + 1)).map(g.adjEdge)
    assert(hubEdges == (0 until 4))
    assert(hubEdges.map(e => g.vertexIds(g.other(e, hub))).toSet == (1L to 4L).toSet)
    (1L to 4L).foreach(leaf => assert(g.degree(g.localId(leaf)) == 1))
  }

  test("build(src, dst) gives the same ids and CSR as build(pairs)") {
    val pairs = TestGraphs.skewed(40, 150, seed = 5) ++ Array(
      (300L, 300L), (300L, 300L), (500L, 500L), // self-loops: one repeated, one alone
      (7L, 9L), (7L, 9L), (9L, 7L),     // a repeated pair and its reverse
      (Long.MaxValue, Long.MinValue))
    val a = LocalGraph.build(pairs)
    val b = LocalGraph.build(pairs.map(_._1), pairs.map(_._2))
    def csr(g: LocalGraph) = Seq(g.vertexIds.toSeq, g.lsrc.toSeq, g.ldst.toSeq, g.adjOff.toSeq, g.adjEdge.toSeq)
    assert(csr(a) == csr(b))
    assert(a.vertexIds.forall(x => a.localId(x) == b.localId(x)))
    assert(b.numEdges == pairs.length && b.degree(b.localId(300L)) == 4 && b.degree(b.localId(500L)) == 2)
    intercept[IllegalArgumentException](LocalGraph.build(Array(1L), Array.emptyLongArray))
  }

  test("a self-loop sits twice under its vertex") {
    val g = LocalGraph.build(Array((5L, 5L)))
    assert(g.numVertices == 1 && g.degree(0) == 2)
    assert(g.other(0, 0) == 0)
  }
}
