package repro.baselines

import repro.graph.{Hashing, LocalGraph}
import scala.collection.mutable

/** Label-propagation *vertex* partitioners:
  *
  *  - [[spinner]] — Spinner (Martella et al. ICDE'17): random initial
  *    labels, then capacity-aware LP. The random init is exactly why the
  *    paper classifies it with the hash family quality-wise.
  *  - [[xtrapulp]] — XtraPuLP-like (Slota et al. IPDPS'17): |P| BFS-grown
  *    seeds (no random allocation), then the same constrained LP.
  *
  * Both return a per-vertex label over the local-vertex index of the CSR
  * built from the edges; use [[VertexCutConversion]] to obtain the edge
  * partitioning the paper evaluates (each edge goes to a random endpoint's
  * partition, as in Bourse et al. KDD'14).
  */
object LabelPropagation {

  private val Seed = 42L
  private val CapacityFactor = 1.05 // label-load cap as a multiple of the mean

  def spinner(edges: Array[(Long, Long)], p: Int,
              iterations: Int = 20): VertexPartition = {
    val g = LocalGraph.build(edges)
    val labels = Array.tabulate(g.numVertices) { lv =>
      Hashing.bucket(g.vertexIds(lv), p, Seed)
    }
    refine(g, labels, p, iterations)
    VertexPartition(g, labels)
  }

  def xtrapulp(edges: Array[(Long, Long)], p: Int,
               iterations: Int = 20): VertexPartition = {
    val g = LocalGraph.build(edges)
    val n = g.numVertices
    val labels = Array.fill(n)(-1)
    if (n > 0) {
      // |P| spread-out seeds, grown breadth-first until every vertex is
      // labeled — a direct label assignment with no random allocation.
      val queue = mutable.Queue.empty[Int]
      var q = 0
      while (q < p) {
        val s = Math.floorMod(Hashing.mix64(Seed + q), n.toLong).toInt
        if (labels(s) < 0) { labels(s) = q; queue.enqueue(s) }
        q += 1
      }
      if (queue.isEmpty) { labels(0) = 0; queue.enqueue(0) }
      while (queue.nonEmpty) {
        val lv = queue.dequeue()
        var k = g.adjOff(lv)
        while (k < g.adjOff(lv + 1)) {
          val lw = g.other(g.adjEdge(k), lv)
          if (labels(lw) < 0) { labels(lw) = labels(lv); queue.enqueue(lw) }
          k += 1
        }
        // disconnected components: restart BFS from the next unlabeled
        if (queue.isEmpty) {
          var i = 0
          var found = false
          while (i < n && !found) {
            if (labels(i) < 0) {
              labels(i) = i % p; queue.enqueue(i); found = true
            }
            i += 1
          }
        }
      }
    }
    refine(g, labels, p, iterations)
    VertexPartition(g, labels)
  }

  /** Capacity-aware LP sweep: each vertex adopts the most frequent neighbor
    * label whose projected degree-load stays below `CapacityFactor` × mean.
    */
  private def refine(g: LocalGraph, labels: Array[Int], p: Int, iterations: Int): Unit = {
    val n = g.numVertices
    if (n == 0) return
    val degLoad = new Array[Long](p)
    var lv = 0
    while (lv < n) {
      degLoad(labels(lv)) += g.degree(lv)
      lv += 1
    }
    val cap = math.max(1L, (CapacityFactor * degLoad.sum / p).toLong)
    val counts = new Array[Int](p)
    var it = 0
    var changedAny = true
    while (it < iterations && changedAny) {
      changedAny = false
      lv = 0
      while (lv < n) {
        java.util.Arrays.fill(counts, 0)
        var k = g.adjOff(lv)
        while (k < g.adjOff(lv + 1)) {
          counts(labels(g.other(g.adjEdge(k), lv))) += 1
          k += 1
        }
        val deg = g.degree(lv).toLong
        val cur = labels(lv)
        var best = cur
        var bestCount = counts(cur)
        var q = 0
        while (q < p) {
          if (counts(q) > bestCount && degLoad(q) + deg <= cap) {
            best = q; bestCount = counts(q)
          }
          q += 1
        }
        if (best != cur) {
          degLoad(cur) -= deg
          degLoad(best) += deg
          labels(lv) = best
          changedAny = true
        }
        lv += 1
      }
      it += 1
    }
  }
}
