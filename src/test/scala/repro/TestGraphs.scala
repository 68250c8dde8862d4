package repro

import scala.collection.mutable

/** Small deterministic graphs and driver-side reference algorithms used
  * across the suites (BFS, union-find WCC, power-iteration PageRank).
  */
object TestGraphs {

  /** K4: complete graph on 4 vertices. */
  val k4: Array[(Long, Long)] =
    (for { i <- 0 until 4; j <- (i + 1) until 4 } yield (i.toLong, j.toLong)).toArray

  /** Path 0-1-2-...-n. */
  def path(n: Int): Array[(Long, Long)] =
    (0 until n).map(i => (i.toLong, (i + 1).toLong)).toArray

  /** Star with center 0 and n leaves. */
  def star(n: Int): Array[(Long, Long)] =
    (1 to n).map(i => (0L, i.toLong)).toArray

  /** Cycle of length n. */
  def ring(n: Int): Array[(Long, Long)] =
    (0 until n).map(i => (i.toLong, ((i + 1) % n).toLong)).toArray

  /** Two triangles joined by one bridge edge. */
  val twoTriangles: Array[(Long, Long)] =
    Array((0L, 1L), (1L, 2L), (0L, 2L), (3L, 4L), (4L, 5L), (3L, 5L), (2L, 3L))

  /** Theorem 2's tightness construction: an n-clique plus an isolated ring
    * of n(n−1)/2 vertices, as canonical pairs (u < v).
    */
  def ringPlusClique(n: Int): Array[(Long, Long)] = {
    require(n >= 3, s"clique size must be >= 3, got $n")
    val clique = for { i <- 0 until n; j <- (i + 1) until n } yield (i.toLong, j.toLong)
    val ringEdges = ring(n * (n - 1) / 2).map { case (u, v) =>
      (n + math.min(u, v), n + math.max(u, v))
    }
    clique.toArray ++ ringEdges
  }

  /** Deterministic pseudo-random small skewed graph (preferential-ish). */
  def skewed(nVertices: Int, nEdges: Int, seed: Long = 7L): Array[(Long, Long)] = {
    val out = mutable.LinkedHashSet.empty[(Long, Long)]
    var s = seed
    def next(): Long = { s = repro.graph.Hashing.mix64(s); s }
    var i = 0
    while (out.size < nEdges && i < nEdges * 20) {
      // endpoint skew: square the unit draw so low ids are hot
      val r1 = repro.graph.Hashing.toUnitDouble(next())
      val r2 = repro.graph.Hashing.toUnitDouble(next())
      val u = (r1 * r1 * nVertices).toLong
      val v = (r2 * nVertices).toLong
      if (u != v) out += (if (u < v) (u, v) else (v, u))
      i += 1
    }
    out.toArray
  }

  // ---- reference algorithms ----

  def bfsDistances(edges: Array[(Long, Long)], source: Long): Map[Long, Long] = {
    val adj = adjacency(edges)
    val dist = mutable.HashMap[Long, Long](source -> 0L)
    val queue = mutable.Queue(source)
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      adj.getOrElse(v, Nil).foreach { u =>
        if (!dist.contains(u)) { dist(u) = dist(v) + 1; queue.enqueue(u) }
      }
    }
    dist.toMap
  }

  def componentsByMinId(edges: Array[(Long, Long)]): Map[Long, Long] = {
    val parent = mutable.HashMap.empty[Long, Long]
    def find(x: Long): Long = {
      val p = parent.getOrElseUpdate(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    edges.foreach { case (u, v) =>
      val ru = find(u); val rv = find(v)
      if (ru != rv) parent(math.max(ru, rv)) = math.min(ru, rv)
    }
    val verts = edges.flatMap { case (u, v) => Seq(u, v) }.distinct
    // path-compress to the true minimum of each component
    verts.map(v => v -> find(v)).toMap
  }

  def pageRankReference(edges: Array[(Long, Long)], iterations: Int,
                        damping: Double = 0.85): Map[Long, Double] = {
    val verts = edges.flatMap { case (u, v) => Seq(u, v) }.distinct.sorted
    val n = verts.length
    val adj = adjacency(edges)
    val deg = verts.map(v => v -> adj(v).size).toMap
    var rank = verts.map(v => v -> 1.0 / n).toMap
    (0 until iterations).foreach { _ =>
      val next = mutable.HashMap(verts.map(v => v -> (1.0 - damping) / n): _*)
      verts.foreach { v =>
        val c = damping * rank(v) / deg(v)
        adj(v).foreach(u => next(u) += c)
      }
      rank = next.toMap
    }
    rank
  }

  def adjacency(edges: Array[(Long, Long)]): Map[Long, Seq[Long]] = {
    val m = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
    edges.foreach { case (u, v) =>
      m.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      m.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }
    m.view.mapValues(_.toSeq).toMap
  }

  /** Deterministic random edge partitioning — the quality yardstick. */
  def randomAssign(edges: Array[(Long, Long)], p: Int, seed: Long = 3L): Array[Int] =
    edges.map { case (u, v) =>
      repro.graph.Hashing.bucket(repro.graph.Hashing.mix64(u ^ seed) ^ v, p)
    }

  def triples(edges: Array[(Long, Long)], assign: Array[Int]): Array[(Long, Long, Int)] =
    edges.indices.map(i => (edges(i)._1, edges(i)._2, assign(i))).toArray
}
