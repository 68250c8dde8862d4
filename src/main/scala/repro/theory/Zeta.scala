package repro.theory

/** Riemann/Hurwitz zeta evaluation for the paper's §6 bound calculations.
  * Direct summation to K with an Euler–Maclaurin tail — accurate to ~1e-10
  * for s in the range the paper uses (1 < s ≤ 3).
  */
object Zeta {

  private val Terms = 200000 // K
  private val cache = new java.util.concurrent.ConcurrentHashMap[Double, Double]()

  /** ζ(s) for s > 1 (memoized — callers evaluate the same s repeatedly). */
  def zeta(s: Double): Double = {
    require(s > 1.0, s"zeta(s) diverges for s <= 1, got $s")
    cache.computeIfAbsent(s, { _ =>
      var sum = 0.0
      var k = 1
      while (k <= Terms) { sum += math.pow(k, -s); k += 1 }
      val K = Terms.toDouble
      // Euler–Maclaurin tail: ∫K^∞ x^-s dx + K^-s/2 + s·K^-(s+1)/12
      sum + math.pow(K, 1.0 - s) / (s - 1.0) + math.pow(K, -s) / 2.0 -
        s * math.pow(K, -s - 1.0) / 12.0
    })
  }

  /** Mean degree ζ(α−1)/ζ(α) of the power-law distribution. */
  def meanDegree(alpha: Double): Double = zeta(alpha - 1.0) / zeta(alpha)
}
