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

  /** Capacity-aware LP sweeps over unit edge weights, with each vertex's
    * degree as its load.
    */
  private def refine(g: LocalGraph, labels: Array[Int], p: Int, iterations: Int): Unit = {
    val (adj, w) = MultilevelVertex.levelZero(g)
    MultilevelVertex.refine(adj, w, adj.map(_.length), labels, p, iterations)
  }
}
