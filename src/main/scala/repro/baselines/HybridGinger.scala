package repro.baselines

import repro.graph.Hashing
import scala.collection.mutable

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
    val degree = new mutable.HashMap[Long, Int]()
    edges.foreach { case (u, v) =>
      degree.updateWith(u)(d => Some(d.getOrElse(0) + 1))
      degree.updateWith(v)(d => Some(d.getOrElse(0) + 1))
    }
    def isLow(x: Long): Boolean = degree(x) <= threshold

    // bundle owner of every vertex; only low-degree owners get refined
    val owner = new mutable.HashMap[Long, Int]()
    degree.keysIterator.foreach { x => owner(x) = Hashing.bucket(x, p, 0x916E5L) }

    /** Edge placement under the current owners (the hybrid-cut rule). */
    def placeEdge(u: Long, v: Long): Int = {
      val (lo, hi) = if (degree(u) < degree(v) || (degree(u) == degree(v) && u < v)) (u, v) else (v, u)
      if (isLow(lo)) owner(lo) else owner(hi)
    }

    // adjacency restricted to low-degree vertices (the movable bundles)
    val adj = new mutable.HashMap[Long, mutable.ArrayBuffer[Long]]()
    edges.foreach { case (u, v) =>
      if (isLow(u)) adj.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      if (isLow(v)) adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }

    val eCount = new Array[Double](p)
    edges.foreach { case (u, v) => eCount(placeEdge(u, v)) += 1 }
    val gamma = BalanceWeight * p.toDouble / math.max(1, edges.length)
    // hard capacity, as in Ginger's balance constraint: a bundle move may
    // not push a partition past capacityFactor × |E|/|P|
    val cap = 1.2 * edges.length / p

    val lowVerts = adj.keysIterator.toArray.sorted
    var r = 0
    while (r < rounds) {
      lowVerts.foreach { v =>
        val neighbors = adj(v)
        // size of v's movable bundle: edges where v is the low pivot
        val bundle = neighbors.count { u =>
          val (lo, _) = if (degree(v) < degree(u) || (degree(v) == degree(u) && v < u)) (v, u) else (u, v)
          lo == v
        }
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
    edges.map { case (u, v) => placeEdge(u, v) }
  }
}
