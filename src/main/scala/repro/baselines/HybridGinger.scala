package repro.baselines

import repro.graph.{Hashing, LocalGraph}

/** PowerLyra's Hybrid + Ginger (Chen et al. EuroSys'15): hybrid hashing
  * followed by Fennel-style refinement of the low-degree vertex bundles.
  *
  * In hybrid-cut every low-degree vertex keeps all of its edges in one
  * bundle placed by hash; Ginger then greedily re-places each bundle on the
  * partition with the most neighbors, minus a balance penalty. High-degree
  * edges stay hashed (they are the replicated ones by design).
  */
object HybridGinger {

  private val BalanceWeight = 1.0 // weight of Fennel's load penalty

  def partition(edges: Array[(Long, Long)], p: Int,
                threshold: Int = 100, rounds: Int = 3): Array[Int] = {
    require(p >= 1)
    val g = LocalGraph.build(edges)
    val ids = g.vertexIds
    def isLow(lx: Int): Boolean = g.degree(lx) <= threshold

    // bundle owner of every vertex; only low-degree owners get refined
    val owner = Array.tabulate(g.numVertices)(lx => Hashing.bucket(ids(lx), p, 0x916E5L))

    /** Edge placement under the current owners (the hybrid-cut rule). */
    def placeEdge(e: Int): Int = {
      val lo = HashPartitioners.lowDegreeEnd(g, g.lsrc(e), g.ldst(e))
      if (isLow(lo)) owner(lo) else owner(g.other(e, lo))
    }

    val eCount = new Array[Double](p)
    (0 until g.numEdges).foreach(e => eCount(placeEdge(e)) += 1)
    val gamma = BalanceWeight * p.toDouble / math.max(1, edges.length)
    // hard capacity, as in Ginger's balance constraint: a bundle move may
    // not push a partition past capacityFactor × |E|/|P|
    val cap = 1.2 * edges.length / p

    // the movable bundles, in global-id order; a vertex's neighbors are its
    // CSR adjacency (edge order, a self-loop listed twice)
    val lowVerts = (0 until g.numVertices).filter(isLow).sortBy(ids(_))
    var r = 0
    while (r < rounds) {
      lowVerts.foreach { v =>
        val neighbors = Array.tabulate(g.degree(v))(i => g.other(g.adjEdge(g.adjOff(v) + i), v))
        // size of v's movable bundle: edges where v is the low pivot
        val bundle = neighbors.count(u => HashPartitioners.lowDegreeEnd(g, v, u) == v)
        val score = new Array[Double](p)
        neighbors.foreach { u => score(owner(u)) += 1.0 }
        var best = owner(v); var bestScore = Double.NegativeInfinity
        var q = 0
        while (q < p) {
          val s = score(q) - gamma * eCount(q)
          val feasible = q == owner(v) || eCount(q) + bundle <= cap
          if (feasible && s > bestScore) { bestScore = s; best = q }
          q += 1
        }
        if (best != owner(v)) {
          eCount(owner(v)) -= bundle
          eCount(best) += bundle
          owner(v) = best
        }
      }
      r += 1
    }
    Array.tabulate(g.numEdges)(placeEdge)
  }
}
