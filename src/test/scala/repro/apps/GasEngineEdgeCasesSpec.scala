package repro.apps

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class GasEngineEdgeCasesSpec extends AnyFunSuite {

  test("sssp marks disconnected vertices unreachable") {
    val edges = TestGraphs.twoTriangles.take(6) // drop the bridge
    val e = new GasEngine(edges, TestGraphs.randomAssign(edges, 2), 2)
    val (dist, _) = e.sssp(0L)
    val reach = (0 until e.graph.numVertices)
      .map(lv => e.graph.vertexIds(lv) -> dist(lv)).toMap
    assert(reach(1L) == 1 && reach(2L) == 1)
    assert(reach(3L) == Long.MaxValue && reach(5L) == Long.MaxValue)
  }

  test("wcc on a ring is a single component labeled by the min id") {
    val edges = TestGraphs.ring(12)
    val e = new GasEngine(edges, TestGraphs.randomAssign(edges, 4), 4)
    val (labels, _) = e.wcc()
    assert(labels.forall(_ == 0L))
  }

  test("wcc supersteps scale with component diameter, not vertex count") {
    val ringE = TestGraphs.ring(16)
    val starE = TestGraphs.star(16)
    val ring = new GasEngine(ringE, TestGraphs.randomAssign(ringE, 2), 2).wcc()._2
    val star = new GasEngine(starE, TestGraphs.randomAssign(starE, 2), 2).wcc()._2
    assert(star.supersteps < ring.supersteps,
      s"star (diam 2, ${star.supersteps}) should converge before ring (diam 8, ${ring.supersteps})")
  }

  test("pagerank on a ring is uniform (symmetry)") {
    val edges = TestGraphs.ring(10)
    val e = new GasEngine(edges, TestGraphs.randomAssign(edges, 2), 2)
    val (ranks, _) = e.pageRank(20)
    ranks.foreach(r => assert(math.abs(r - 0.1) < 1e-12))
  }

  test("pagerank on a star concentrates rank at the hub") {
    val edges = TestGraphs.star(10)
    val e = new GasEngine(edges, TestGraphs.randomAssign(edges, 2), 2)
    val (ranks, _) = e.pageRank(30)
    val hub = ranks(e.graph.localId(0L))
    (1L to 10L).foreach { leaf =>
      assert(hub > ranks(e.graph.localId(leaf)) * 3)
    }
  }

  test("sssp work accounting: total work equals edges scanned from frontiers") {
    val edges = TestGraphs.path(5)
    val assign = Array.fill(edges.length)(0)
    val e = new GasEngine(edges, assign, 1)
    val (_, stats) = e.sssp(0L)
    // frontier walks 0→5; each vertex scans its incident edges once, plus
    // one apply per updated vertex: degrees 1+2+2+2+2+1=10, applies 5
    assert(stats.workPerPart(0) == 10 + 5)
  }

  test("pagerank rejects zero iterations") {
    val e = new GasEngine(TestGraphs.k4, Array.fill(6)(0), 1)
    intercept[IllegalArgumentException](e.pageRank(0))
  }

  test("stats carry the app name and per-partition work array") {
    val e = new GasEngine(TestGraphs.k4, TestGraphs.randomAssign(TestGraphs.k4, 2), 2)
    val (_, s1) = e.sssp(0L)
    val (_, s2) = e.wcc()
    val (_, s3) = e.pageRank(2)
    assert(s1.app == "SSSP" && s2.app == "WCC" && s3.app == "PageRank")
    assert(s1.workPerPart.length == 2 && s3.workPerPart.length == 2)
  }
}
