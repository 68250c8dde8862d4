package repro.baselines

import repro.graph.{Grid2D, Hashing, LocalGraph}

/** The hash-based edge partitioners the paper benchmarks (§2.2, §7):
  * Random (1-D hash), Grid (2-D hash) and DBH.
  * Each places an edge from its endpoints alone (DBH also reads their
  * degrees) — exactly why they scale and exactly why their quality is poor
  * (random allocation).
  */
object HashPartitioners {

  /** Random / 1D-hash: the edge id is hashed to one dimension. */
  def random1D(edges: Array[(Long, Long)], p: Int): Array[Int] =
    edges.map { case (u, v) => Hashing.bucket(Hashing.mix64(u) ^ v, p, salt = 0xED6E1L) }

  /** Grid / 2D-hash: edge placed at (h(u) mod r, h(v) mod c). Falls back to
    * 1×p (vertex hash on v) when p is not a power of two — see Grid2D.
    */
  def grid(edges: Array[(Long, Long)], p: Int): Array[Int] = {
    val g = Grid2D.forPartitions(p)
    edges.map { case (u, v) => g.cellOf(u, v) }
  }

  /** Degree-Based Hashing (Xie et al. NIPS'14): hash the lower-degree
    * endpoint, so high-degree vertices are the ones that get cut.
    */
  def dbh(edges: Array[(Long, Long)], p: Int): Array[Int] = {
    val g = LocalGraph.build(edges)
    Array.tabulate(g.numEdges) { e =>
      val pivot = lowDegreeEnd(g, g.lsrc(e), g.ldst(e))
      Hashing.bucket(g.vertexIds(pivot), p, salt = 0xDB11L)
    }
  }

  /** Of the local vertices `lu` and `lw`, the one with the lower degree in
    * `g`, ties to the smaller global id — the endpoint DBH hashes and whose
    * bundle holds the edge in hybrid-cut.
    */
  def lowDegreeEnd(g: LocalGraph, lu: Int, lw: Int): Int = {
    val du = g.degree(lu); val dw = g.degree(lw)
    if (du < dw || (du == dw && g.vertexIds(lu) < g.vertexIds(lw))) lu else lw
  }
}
