package repro.baselines

import repro.graph.{LocalGraph, PartitionSets}

/** HDRF — High-Degree (are) Replicated First (Petroni et al. CIKM'15), the
  * sequential streaming baseline of Table 4.
  *
  * For each streamed edge (u,v) the partition maximising
  * `C_REP(p) + bal · C_BAL(p)` is chosen, where
  * `C_REP(p) = g(u,p) + g(v,p)`, `g(x,p) = [p ∈ A(x)] · (1 + (1 − θ_x))`,
  * `θ_x = d(x)/(d(u)+d(v))` over the *partial* degrees seen so far, and
  * `C_BAL(p) = (maxLoad − load(p)) / (ε + maxLoad − minLoad)`.
  *
  * Sequential on the driver by design — that is the paper's point of
  * comparison (Table 4: good RF, no parallel speed).
  */
object HDRF {

  private val Balance = 1.1     // weight `bal` of the balance term
  private val Eps = 1e-3        // ε in C_BAL
  private val Alpha = 1.1       // hard capacity α·|E|/|P|
  private val ShuffleSeed = 97L // stream order permutation

  def partition(edges: Array[(Long, Long)], p: Int): Array[Int] = {
    require(p >= 1)
    val out = new Array[Int](edges.length)
    val g = LocalGraph.build(edges)
    val replicas = PartitionSets(g.numVertices, p)
    val degree = new Array[Int](g.numVertices) // partial degrees
    val load = new Array[Long](p)
    var maxLoad = 0L
    var minLoad = 0L
    // HDRF consumes an *unordered* stream; our callers hand over sorted
    // canonical edges, so apply a deterministic permutation first (a sorted
    // stream would hand HDRF artificial locality it does not have in the
    // paper). The hard capacity below is standard in HDRF implementations —
    // without it the replication term snowballs one partition.
    val order = edges.indices.toArray
    val rnd = new java.util.Random(ShuffleSeed)
    var j = order.length - 1
    while (j > 0) { val k = rnd.nextInt(j + 1); val t = order(j); order(j) = order(k); order(k) = t; j -= 1 }
    val cap = math.ceil(Alpha * edges.length / p).toLong

    var i = 0
    while (i < edges.length) {
      val idx = order(i)
      val u = g.lsrc(idx); val v = g.ldst(idx)
      degree(u) += 1; val du = degree(u)
      degree(v) += 1; val dv = degree(v) // a self-loop counts twice
      val thetaU = du.toDouble / (du + dv)
      val thetaV = 1.0 - thetaU
      var best = -1
      var bestScore = Double.NegativeInfinity
      var q = 0
      while (q < p) {
        if (load(q) < cap) {
          val gU = if (replicas.contains(u, q)) 1.0 + (1.0 - thetaU) else 0.0
          val gV = if (replicas.contains(v, q)) 1.0 + (1.0 - thetaV) else 0.0
          val cBal = (maxLoad - load(q)).toDouble / (Eps + (maxLoad - minLoad).toDouble)
          val score = gU + gV + Balance * cBal
          if (score > bestScore) { bestScore = score; best = q }
        }
        q += 1
      }
      require(best >= 0, "capacity exhausted — alpha must exceed 1.0")
      out(idx) = best
      replicas.add(u, best); replicas.add(v, best)
      load(best) += 1
      if (load(best) > maxLoad) maxLoad = load(best)
      minLoad = load.min // p is small (≤ 1024); fine per edge at repro scale
      i += 1
    }
    out
  }
}
