package repro.baselines

import repro.graph.LocalGraph
import scala.collection.mutable

/** Sheep (Margo & Seltzer, PVLDB'15) — the elimination-tree edge
  * partitioner the paper calls the state-of-the-art high-quality
  * distributed method.
  *
  * Reproduction of the published pipeline on one node:
  *  1. order vertices by (degree, id) ascending — Sheep's degree-based
  *     elimination order;
  *  2. build the elimination tree with union–find: eliminating v attaches
  *     the components of its lower-ordered neighbors under v;
  *  3. charge every edge to the tree node of its lower-ordered endpoint;
  *  4. partition the tree bottom-up into |P| weight-balanced chunks; an
  *     edge inherits the chunk of the node it was charged to.
  *
  * Matches the paper's observed behaviour: near-perfect on tree-like /
  * road graphs, mediocre on dense social graphs (Pokec, Orkut).
  */
object Sheep {

  def partition(edges: Array[(Long, Long)], p: Int): Array[Int] = {
    require(p >= 1)
    val g = LocalGraph.build(edges)
    val n = g.numVertices
    val out = new Array[Int](edges.length)
    if (n == 0) return out

    // 1. elimination order by ascending degree
    val order = Array.tabulate(n)(identity)
      .sortBy(lv => (g.degree(lv), g.vertexIds(lv)))
    val rank = new Array[Int](n)
    order.zipWithIndex.foreach { case (lv, r) => rank(lv) = r }

    // 2. elimination tree via union–find
    val parent = Array.fill(n)(-1)
    val ufParent = Array.tabulate(n)(identity)
    val ufTop = Array.tabulate(n)(identity) // highest eliminated vertex in set
    def find(x: Int): Int = {
      var r = x
      while (ufParent(r) != r) r = ufParent(r)
      var c = x
      while (ufParent(c) != r) { val nx = ufParent(c); ufParent(c) = r; c = nx }
      r
    }
    order.foreach { v =>
      var k = g.adjOff(v)
      while (k < g.adjOff(v + 1)) {
        val u = g.other(g.adjEdge(k), v)
        if (rank(u) < rank(v)) {
          val ru = find(u)
          val top = ufTop(ru)
          if (top != v && parent(top) < 0) {
            parent(top) = v
            ufParent(ru) = find(v)
            ufTop(find(v)) = v
          }
        }
        k += 1
      }
    }

    // 3. edge weights charged to the lower-ordered endpoint
    def chargedTo(e: Int): Int =
      if (rank(g.lsrc(e)) < rank(g.ldst(e))) g.lsrc(e) else g.ldst(e)
    val weight = new Array[Long](n)
    var e = 0
    while (e < edges.length) { weight(chargedTo(e)) += 1; e += 1 }

    // 4. bottom-up tree partitioning into |P| weight chunks: walking the
    // elimination order is a topological order of the tree (children first)
    val chunk = Array.fill(n)(-1)
    val acc = weight.clone()
    val capacity = math.max(1L, math.ceil(edges.length.toDouble / p).toLong)
    var nextChunk = 0
    order.foreach { v =>
      if (acc(v) >= capacity && nextChunk < p - 1) {
        chunk(v) = nextChunk // cut: v roots a new chunk
        nextChunk += 1
        acc(v) = 0           // subtree removed from the running weight
      }
      val pr = parent(v)
      if (pr >= 0) acc(pr) += acc(v)
    }
    // top-down inheritance (parents have higher elimination rank, so walk
    // the order backwards): an uncut vertex joins its nearest cut ancestor;
    // anything above every cut — including the roots — forms the last chunk
    val lastChunk = nextChunk
    order.reverseIterator.foreach { v =>
      if (chunk(v) < 0) {
        val pr = parent(v)
        chunk(v) = if (pr >= 0) chunk(pr) else lastChunk
      }
    }

    e = 0
    while (e < edges.length) { out(e) = chunk(chargedTo(e)); e += 1 }
    out
  }
}
