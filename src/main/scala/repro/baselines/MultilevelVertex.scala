package repro.baselines

import repro.graph.{Hashing, LocalGraph}
import scala.collection.mutable

/** Multilevel vertex partitioner in the ParMETIS mold (Karypis & Kumar):
  * heavy-edge-matching coarsening, greedy region-growing on the coarsest
  * graph, then uncoarsening with boundary refinement under a vertex-weight
  * balance constraint.
  *
  * This is the paper's "direct optimisation" vertex-partitioning
  * comparator (Tables 6, quality figures). The paper also observes its
  * memory blow-up from the coarsening hierarchy — which this implementation
  * shares by construction (each level keeps its own graph).
  */
object MultilevelVertex {

  /** Weighted graph at one level of the hierarchy. */
  private final case class Level(
      adj: Array[Array[Int]],       // neighbor ids
      w: Array[Array[Int]],         // edge weights, aligned with adj
      vw: Array[Int],               // vertex weights (coarse multiplicities)
      fineToCoarse: Array[Int])     // map from the finer level's ids

  private val Seed = 42L
  private val Balance = 1.05 // vertex-weight cap as a multiple of the mean

  def partition(edges: Array[(Long, Long)], p: Int): VertexPartition = {
    val g = LocalGraph.build(edges)
    val n = g.numVertices
    if (n == 0) return VertexPartition(g, Array.empty)

    var (adj, w) = levelZero(g)
    var vw = Array.fill(n)(1)

    // --- coarsening ---
    val levels = mutable.ArrayBuffer.empty[Level]
    val targetSize = math.max(4 * p, 64)
    var cur = n
    var round = 0
    while (cur > targetSize && round < 30) {
      val matchTo = Array.fill(cur)(-1)
      val order = Array.tabulate(cur)(identity)
        .sortBy(i => Hashing.mix64(Seed + round * 1000003L + i))
      order.foreach { i =>
        if (matchTo(i) < 0) {
          var best = -1; var bestW = -1
          var k = 0
          while (k < adj(i).length) {
            val j = adj(i)(k)
            if (j != i && matchTo(j) < 0 && (w(i)(k) > bestW ||
                (w(i)(k) == bestW && (best < 0 || j < best)))) {
              best = j; bestW = w(i)(k)
            }
            k += 1
          }
          if (best >= 0) { matchTo(i) = best; matchTo(best) = i }
          else matchTo(i) = i
        }
      }
      val coarseId = Array.fill(cur)(-1)
      var next = 0
      var i = 0
      while (i < cur) {
        if (coarseId(i) < 0) {
          coarseId(i) = next
          if (matchTo(i) != i) coarseId(matchTo(i)) = next
          next += 1
        }
        i += 1
      }
      val cAdjMaps = Array.fill(next)(new mutable.HashMap[Int, Int]())
      val cvw = new Array[Int](next)
      i = 0
      while (i < cur) {
        val ci = coarseId(i)
        cvw(ci) += vw(i)
        var k = 0
        while (k < adj(i).length) {
          val cj = coarseId(adj(i)(k))
          if (cj != ci) cAdjMaps(ci).updateWith(cj)(x => Some(x.getOrElse(0) + w(i)(k)))
          k += 1
        }
        i += 1
      }
      levels += Level(adj, w, vw, coarseId)
      adj = cAdjMaps.map(_.keysIterator.toArray.sorted)
      w = adj.zipWithIndex.map { case (ns, ci) => ns.map(cAdjMaps(ci)) }
      vw = cvw
      if (next >= cur * 95 / 100) round = 30 // stalled — stop coarsening
      cur = next
      round += 1
    }

    // --- initial partition: greedy region growing on the coarsest graph ---
    var labels = growRegions(adj, vw, p)

    // --- uncoarsen + refine ---
    var li = levels.length - 1
    refine(adj, w, vw, labels, p, passes = 4)
    while (li >= 0) {
      val level = levels(li)
      val fine = new Array[Int](level.adj.length)
      var i = 0
      while (i < fine.length) { fine(i) = labels(level.fineToCoarse(i)); i += 1 }
      labels = fine
      refine(level.adj, level.w, level.vw, labels, p, passes = 2)
      li -= 1
    }
    VertexPartition(g, labels)
  }

  /** BFS region growing balanced on vertex weight. */
  private def growRegions(adj: Array[Array[Int]], vw: Array[Int], p: Int): Array[Int] = {
    val n = adj.length
    val labels = Array.fill(n)(-1)
    val totalW = vw.map(_.toLong).sum
    val cap = math.max(1L, (Balance * totalW / p).toLong)
    val loads = new Array[Long](p)
    val queues = Array.fill(p)(mutable.Queue.empty[Int])
    var q = 0
    while (q < p && q < n) {
      val s = Math.floorMod(Hashing.mix64(Seed * 31 + q), n.toLong).toInt
      val s2 = if (labels(s) < 0) s else (0 until n).find(labels(_) < 0).getOrElse(-1)
      if (s2 >= 0) { labels(s2) = q; loads(q) += vw(s2); queues(q).enqueue(s2) }
      q += 1
    }
    var assigned = labels.count(_ >= 0)
    var progress = true
    while (assigned < n && progress) {
      progress = false
      q = 0
      while (q < p) {
        if (queues(q).nonEmpty && loads(q) < cap) {
          val v = queues(q).dequeue()
          adj(v).foreach { u =>
            if (labels(u) < 0 && loads(q) < cap) {
              labels(u) = q; loads(q) += vw(u); queues(q).enqueue(u)
              assigned += 1; progress = true
            }
          }
          if (queues(q).nonEmpty) progress = true
        }
        q += 1
      }
      if (!progress && assigned < n) {
        // disconnected leftovers → least-loaded partition
        val v = (0 until n).find(labels(_) < 0).get
        val tq = loads.indices.minBy(loads(_))
        labels(v) = tq; loads(tq) += vw(v); queues(tq).enqueue(v)
        assigned += 1; progress = true
      }
    }
    labels
  }

  /** Level 0 of the hierarchy: each vertex's neighbours in `g`, with unit
    * edge weights.
    */
  private[baselines] def levelZero(g: LocalGraph): (Array[Array[Int]], Array[Array[Int]]) = {
    val adj = Array.tabulate(g.numVertices) { lv =>
      (g.adjOff(lv) until g.adjOff(lv + 1)).map(k => g.other(g.adjEdge(k), lv)).toArray
    }
    (adj, adj.map(_.map(_ => 1)))
  }

  /** FM-flavoured boundary sweeps, also the label-propagation step of
    * [[LabelPropagation]]: move a vertex to the label with strictly larger
    * neighbour weight whose load stays within `Balance` × the mean, until
    * a pass moves nothing or `passes` passes have run.
    */
  private[baselines] def refine(adj: Array[Array[Int]], w: Array[Array[Int]],
                                vw: Array[Int], labels: Array[Int], p: Int,
                                passes: Int): Unit = {
    val n = adj.length
    if (n == 0) return
    val loads = new Array[Long](p)
    var i = 0
    while (i < n) { loads(labels(i)) += vw(i); i += 1 }
    val cap = math.max(1L, (Balance * loads.sum / p).toLong)
    val gain = new Array[Long](p)
    var pass = 0
    var moved = true
    while (pass < passes && moved) {
      moved = false
      i = 0
      while (i < n) {
        java.util.Arrays.fill(gain, 0L)
        var k = 0
        while (k < adj(i).length) {
          gain(labels(adj(i)(k))) += w(i)(k)
          k += 1
        }
        val cur = labels(i)
        var best = cur
        var q = 0
        while (q < p) {
          if (gain(q) > gain(best) && loads(q) + vw(i) <= cap) best = q
          q += 1
        }
        if (best != cur) {
          loads(cur) -= vw(i); loads(best) += vw(i); labels(i) = best
          moved = true
        }
        i += 1
      }
      pass += 1
    }
  }
}
