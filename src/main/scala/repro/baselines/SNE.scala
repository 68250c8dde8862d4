package repro.baselines

import repro.graph.{LocalGraph, PartitionSets}
import scala.collection.mutable

/** SNE — Streaming Neighbor Expansion (Zhang et al. KDD'17), the
  * bounded-memory variant of NE used in Table 4.
  *
  * The edge stream is consumed in chunks that fit a memory budget; within a
  * chunk every partition continues its neighbor expansion from the vertices
  * it already owns (memberships are carried across chunks, so Condition (5)
  * two-hop absorption still applies), and leftover chunk edges are absorbed
  * by expanding the least-loaded partition from a fresh vertex. This is a
  * faithful simplification of SNE's buffer management (documented in
  * DESIGN.md §3): quality lands between HDRF and offline NE, as in the
  * paper.
  */
object SNE {

  private val Alpha = 1.1 // capacity α·|E|/|P| per partition

  def partition(edges: Array[(Long, Long)], p: Int, chunkEdges: Int): Array[Int] = {
    require(p >= 1 && chunkEdges >= 1)
    val m = edges.length
    val out = new Array[Int](m)
    if (m == 0) return out
    val cap = math.ceil(Alpha * m / p).toLong
    val whole = LocalGraph.build(edges) // local ids of the carried memberships
    val member = PartitionSets(whole.numVertices, p)
    val sizes = new Array[Long](p)

    var chunkStart = 0
    while (chunkStart < m) {
      val chunkEnd = math.min(m, chunkStart + chunkEdges)
      val chunk = java.util.Arrays.copyOfRange(edges, chunkStart, chunkEnd)
      val g = LocalGraph.build(chunk)
      val n = g.numVertices
      val wholeId = Array.tabulate(n)(lv => whole.localId(g.vertexIds(lv)))
      val localOut = Array.fill(chunk.length)(-1)
      val unalloc = Array.tabulate(n)(g.degree)
      var remaining = chunk.length

      def allocate(e: Int, q: Int): Unit = {
        localOut(e) = q
        remaining -= 1
        sizes(q) += 1
        unalloc(g.lsrc(e)) -= 1
        unalloc(g.ldst(e)) -= 1
        member.add(wholeId(g.lsrc(e)), q)
        member.add(wholeId(g.ldst(e)), q)
      }

      /** NE-style expansion of vertex `lv` into `q`, incl. two-hop. The cap
        * is enforced per edge — a hub's neighborhood can exceed a whole
        * partition's capacity at repro scale, and an uncapped expand would
        * wreck the edge balance (skipped edges stay for later seeds).
        */
      def expand(lv: Int, q: Int, boundary: mutable.PriorityQueue[(Int, Int)]): Unit = {
        val fresh = mutable.ArrayBuffer.empty[Int]
        var k = g.adjOff(lv)
        while (k < g.adjOff(lv + 1) && sizes(q) < cap) {
          val e = g.adjEdge(k)
          if (localOut(e) < 0) {
            allocate(e, q)
            fresh += g.other(e, lv)
          }
          k += 1
        }
        fresh.foreach { lu =>
          var j = g.adjOff(lu)
          while (j < g.adjOff(lu + 1) && sizes(q) < cap) {
            val e = g.adjEdge(j)
            if (localOut(e) < 0) {
              if (member.contains(wholeId(g.other(e, lu)), q)) allocate(e, q)
            }
            j += 1
          }
          if (unalloc(lu) > 0) boundary.enqueue((unalloc(lu), lu))
        }
      }

      /** Expands `q` from `boundary`, min-D_rest first (a stale entry is
        * re-inserted with its current D_rest), until |E_q| reaches `stopAt`
        * or the boundary runs out.
        */
      def grow(q: Int, boundary: mutable.PriorityQueue[(Int, Int)], stopAt: Long): Unit =
        while (sizes(q) < stopAt && remaining > 0 && boundary.nonEmpty) {
          val (d, cand) = boundary.dequeue()
          if (unalloc(cand) > 0) {
            if (d == unalloc(cand)) expand(cand, q, boundary)
            else boundary.enqueue((unalloc(cand), cand))
          }
        }

      // continue each partition's expansion from its carried memberships
      var q = 0
      while (q < p) {
        if (sizes(q) < cap) {
          val boundary = mutable.PriorityQueue.empty[(Int, Int)](
            Ordering.Tuple2[Int, Int].reverse)
          var lv = 0
          while (lv < n) {
            if (unalloc(lv) > 0 && member.contains(wholeId(lv), q))
              boundary.enqueue((unalloc(lv), lv))
            lv += 1
          }
          grow(q, boundary, cap)
        }
        q += 1
      }

      // leftovers: grow a fresh region for the least-loaded partition from a
      // new seed (the streaming analogue of NE's random restart), expanding
      // its boundary min-D_rest-first under a per-seed budget so the regions
      // stay contiguous and balanced
      var cursor = 0
      val seedBudget = math.max(1L, chunk.length.toLong / p)
      while (remaining > 0) {
        while (cursor < n && unalloc(cursor) == 0) cursor += 1
        require(cursor < n, "SNE lost track of chunk edges")
        val target = {
          val open = (0 until p).filter(sizes(_) < cap)
          if (open.nonEmpty) open.minBy(sizes(_)) else (0 until p).minBy(sizes(_))
        }
        val boundary = mutable.PriorityQueue.empty[(Int, Int)](
          Ordering.Tuple2[Int, Int].reverse)
        val stopAt = math.min(cap, sizes(target) + seedBudget)
        expand(cursor, target, boundary)
        grow(target, boundary, stopAt)
      }

      var e = 0
      while (e < chunk.length) { out(chunkStart + e) = localOut(e); e += 1 }
      chunkStart = chunkEnd
    }
    out
  }
}
