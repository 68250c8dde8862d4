package repro.core

import repro.graph.{LocalGraph, PartitionSets}

import scala.collection.mutable

/** Sequential Neighbor Expansion (NE, Zhang et al. KDD'17) — the offline
  * single-machine state of the art the paper compares against in Table 4.
  *
  * Partitions are computed one after another; each grows from a seed vertex
  * by repeatedly expanding the boundary vertex with minimal remaining degree
  * (Eq. 4) and absorbing two-hop edges that satisfy Condition (5). The last
  * partition is uncapped and absorbs the remainder.
  *
  * Driver-side by design: the whole point of the paper is that this
  * algorithm requires the entire graph in one memory.
  */
object SequentialNE {

  final case class Config(numPartitions: Int, alpha: Double = 1.1, seed: Long = 42L) {
    require(numPartitions >= 1 && alpha > 1.0)
  }

  /** @return per-edge partition ids aligned with `edges`. */
  def partition(edges: Array[(Long, Long)], cfg: Config): Array[Int] = {
    val g = LocalGraph.build(edges)
    val m = g.numEdges
    val n = g.numVertices
    val out = Array.fill(m)(-1)
    if (m == 0) return out
    val unalloc = Array.tabulate(n)(g.degree)
    val member = PartitionSets(n, cfg.numPartitions)
    var remaining = m
    var scanCursor = 0 // seeded start for random restarts, then linear scan
    val startAt = Math.floorMod(repro.graph.Hashing.mix64(cfg.seed), n.toLong).toInt

    def nextUnallocatedVertex(): Int = {
      while (scanCursor < n && unalloc((startAt + scanCursor) % n) == 0) scanCursor += 1
      require(scanCursor < n, "no unallocated vertex although edges remain")
      (startAt + scanCursor) % n
    }

    var p = 0
    while (p < cfg.numPartitions && remaining > 0) {
      val cap =
        if (p == cfg.numPartitions - 1) Long.MaxValue
        else math.ceil(cfg.alpha * m / cfg.numPartitions).toLong
      var size = 0L
      val heap = mutable.PriorityQueue.empty[(Int, Int)](
        Ordering.Tuple2[Int, Int].reverse) // (drest, localVertex) min-heap

      def allocate(e: Int, part: Int): Unit = {
        out(e) = part
        remaining -= 1
        size += 1
        unalloc(g.lsrc(e)) -= 1
        unalloc(g.ldst(e)) -= 1
      }

      /** Expand `lv` into partition p: one-hop + Condition-(5) two-hop.
        * The cap is enforced per edge (a hub's neighborhood can exceed a
        * partition's whole capacity at repro scale); skipped edges remain
        * for later partitions.
        */
      def expand(lv: Int): Unit = {
        member.add(lv, p)
        val newBoundary = mutable.ArrayBuffer.empty[Int]
        var k = g.adjOff(lv)
        while (k < g.adjOff(lv + 1) && size < cap) {
          val e = g.adjEdge(k)
          if (out(e) < 0) {
            val lu = g.other(e, lv)
            allocate(e, p)
            if (member.add(lu, p)) newBoundary += lu
          }
          k += 1
        }
        // two-hop: edges between the new boundary and any vertex already in
        // V(E_p) never increase replication (Condition (5))
        newBoundary.foreach { lu =>
          var j = g.adjOff(lu)
          while (j < g.adjOff(lu + 1) && size < cap) {
            val e = g.adjEdge(j)
            if (out(e) < 0) {
              if (member.contains(g.other(e, lu), p)) allocate(e, p)
            }
            j += 1
          }
          if (unalloc(lu) > 0) heap.enqueue((unalloc(lu), lu))
        }
      }

      while (size < cap && remaining > 0) {
        var picked = -1
        // lazy-refresh pop: stale entries are re-inserted with the current
        // D_rest so the min really is the minimum (Eq. 4). An expanded
        // vertex has no unallocated edge left unless it hit the cap, which
        // ends the partition, so `unalloc > 0` alone skips it.
        while (picked < 0 && heap.nonEmpty) {
          val (d, lv) = heap.dequeue()
          if (unalloc(lv) > 0) {
            if (d == unalloc(lv)) picked = lv
            else heap.enqueue((unalloc(lv), lv))
          }
        }
        if (picked < 0) picked = nextUnallocatedVertex() // random restart
        expand(picked)
      }
      p += 1
    }
    require(remaining == 0, s"sequential NE left $remaining edges unallocated")
    out
  }
}
