package repro.graph

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

  test("adjacency lists every incident edge in edge order, and other walks it") {
    val g = LocalGraph.build(TestGraphs.star(4))
    val hub = g.localId(0L)
    assert(g.degree(hub) == 4)
    val hubEdges = (g.adjOff(hub) until g.adjOff(hub + 1)).map(g.adjEdge)
    assert(hubEdges == (0 until 4))
    assert(hubEdges.map(e => g.vertexIds(g.other(e, hub))).toSet == (1L to 4L).toSet)
    (1L to 4L).foreach(leaf => assert(g.degree(g.localId(leaf)) == 1))
  }

  test("a self-loop sits twice under its vertex") {
    val g = LocalGraph.build(Array((5L, 5L)))
    assert(g.numVertices == 1 && g.degree(0) == 2)
    assert(g.other(0, 0) == 0)
  }
}
