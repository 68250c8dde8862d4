package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalMetrics

/** Covers the streaming/greedy baselines: Oblivious, HDRF, SNE, and
  * Hybrid Ginger.
  */
class StreamingPartitionersSpec extends AnyFunSuite {

  private val edges = TestGraphs.skewed(500, 4000)
  private def rfOf(assign: Array[Int]): Double =
    LocalMetrics.replicationFactor(TestGraphs.triples(edges, assign))
  private val rfRandom = rfOf(TestGraphs.randomAssign(edges, 8))

  // ---- Oblivious ----

  test("oblivious covers every edge exactly once, in range") {
    val t = TestGraphs.triples(edges, Oblivious.partition(edges, 8))
    assert(t.length == edges.length)
    assert(t.map(x => (x._1, x._2)).sorted.toSeq == edges.sorted.toSeq)
    t.foreach(x => assert(x._3 >= 0 && x._3 < 8))
  }

  test("oblivious is deterministic") {
    val a = Oblivious.partition(edges, 8).toSeq
    val b = Oblivious.partition(edges, 8).toSeq
    assert(a == b)
  }

  test("oblivious ignores input order") {
    // the streams are runs of the sorted edges, whatever order they came in
    val shuffled = new scala.util.Random(13).shuffle(edges.toSeq).toArray
    assert(shuffled.toSeq != edges.toSeq)
    val partOf = edges.zip(Oblivious.partition(edges, 8)).toMap
    assert(shuffled.zip(Oblivious.partition(shuffled, 8)).toMap == partOf)
  }

  test("oblivious beats plain random hashing on RF") {
    val rf = rfOf(Oblivious.partition(edges, 8))
    assert(rf < rfRandom, s"oblivious RF $rf vs random $rfRandom")
  }

  test("oblivious load stays balanced within a stream's greedy tolerance") {
    val t = TestGraphs.triples(edges, Oblivious.partition(edges, 8))
    assert(LocalMetrics.edgeBalance(t) < 1.6)
  }

  // ---- HDRF ----

  test("hdrf covers every edge, in range, deterministically") {
    val a = HDRF.partition(edges, 8)
    val b = HDRF.partition(edges, 8)
    assert(a.length == edges.length && a.toSeq == b.toSeq)
    a.foreach(x => assert(x >= 0 && x < 8))
  }

  test("hdrf beats random hashing on RF") {
    val rf = rfOf(HDRF.partition(edges, 8))
    assert(rf < rfRandom, s"HDRF RF $rf vs random $rfRandom")
  }

  test("hdrf respects balance via its C_BAL term") {
    val eb = LocalMetrics.edgeBalance(TestGraphs.triples(edges, HDRF.partition(edges, 8)))
    assert(eb < 1.3, s"HDRF edge balance degraded: $eb")
  }

  test("hdrf colocates both endpoints of an isolated edge deterministically") {
    val tiny = Array((0L, 1L))
    val a = HDRF.partition(tiny, 4)
    assert(a.length == 1 && a(0) >= 0 && a(0) < 4)
  }

  // ---- SNE ----

  test("sne covers every edge across chunk boundaries") {
    for (chunk <- Seq(64, 512, edges.length + 10)) {
      val a = SNE.partition(edges, 8, chunkEdges = chunk)
      assert(a.length == edges.length)
      a.foreach(x => assert(x >= 0 && x < 8))
    }
  }

  test("sne quality lands between random and offline NE (Table 4 shape)") {
    val rfSNE = rfOf(SNE.partition(edges, 8, chunkEdges = edges.length / 8))
    val rfNE = rfOf(repro.core.SequentialNE.partition(edges, repro.core.SequentialNE.Config(8)))
    assert(rfSNE < rfRandom, s"SNE RF $rfSNE should beat random $rfRandom")
    assert(rfNE <= rfSNE + 0.35, s"offline NE ($rfNE) should be at least about as good as SNE ($rfSNE)")
  }

  test("sne with a single chunk approaches offline-NE behaviour") {
    val a = SNE.partition(edges, 4, chunkEdges = edges.length)
    val rf = rfOf(a)
    assert(rf < rfRandom)
  }

  test("sne is deterministic") {
    val a = SNE.partition(edges, 8, chunkEdges = 300)
    val b = SNE.partition(edges, 8, chunkEdges = 300)
    assert(a.toSeq == b.toSeq)
  }

  // ---- Hybrid Ginger ----

  test("hybrid ginger covers every edge, in range, deterministically") {
    val a = HybridGinger.partition(edges, 8)
    val b = HybridGinger.partition(edges, 8)
    assert(a.length == edges.length && a.toSeq == b.toSeq)
    a.foreach(x => assert(x >= 0 && x < 8))
  }

  test("hybrid ginger improves on plain random hashing") {
    val rf = rfOf(HybridGinger.partition(edges, 8))
    assert(rf < rfRandom, s"H.G. RF $rf vs random $rfRandom")
  }

  test("ginger refinement does not destroy balance (hard capacity holds)") {
    val eb0 = LocalMetrics.edgeBalance(
      TestGraphs.triples(edges, HybridGinger.partition(edges, 8, rounds = 0)))
    val eb = LocalMetrics.edgeBalance(TestGraphs.triples(edges, HybridGinger.partition(edges, 8)))
    // refinement may not exceed the hard capacity (1.2) beyond what the
    // initial hybrid hash already had
    assert(eb <= math.max(eb0, 1.25) + 1e-9,
      s"H.G. edge balance $eb worse than both init ($eb0) and the capacity")
  }

  test("ginger refinement improves over zero-round hybrid") {
    val rf0 = rfOf(HybridGinger.partition(edges, 8, rounds = 0))
    val rf3 = rfOf(HybridGinger.partition(edges, 8, rounds = 3))
    assert(rf3 <= rf0 + 1e-9, s"refinement should not hurt: $rf3 vs $rf0")
  }
}
