package repro.theory

import org.scalatest.funsuite.AnyFunSuite

class BoundsSpec extends AnyFunSuite {

  test("zeta matches known closed forms") {
    assert(math.abs(Zeta.zeta(2.0) - math.Pi * math.Pi / 6.0) < 1e-8)
    assert(math.abs(Zeta.zeta(4.0) - math.pow(math.Pi, 4) / 90.0) < 1e-8)
  }

  test("zeta rejects the divergent domain") {
    intercept[IllegalArgumentException](Zeta.zeta(1.0))
    intercept[IllegalArgumentException](Zeta.zeta(0.5))
  }

  test("zeta is decreasing in s") {
    assert(Zeta.zeta(1.2) > Zeta.zeta(1.5))
    assert(Zeta.zeta(1.5) > Zeta.zeta(2.5))
  }

  test("mean degree decreases with alpha") {
    assert(Zeta.meanDegree(2.2) > Zeta.meanDegree(2.4))
    assert(Zeta.meanDegree(2.4) > Zeta.meanDegree(2.8))
  }

  test("PAPER TABLE 1: Distributed NE bound reproduces 2.88 / 2.12 / 1.88 / 1.75") {
    val expected = Map(2.2 -> 2.88, 2.4 -> 2.12, 2.6 -> 1.88, 2.8 -> 1.75)
    expected.foreach { case (alpha, want) =>
      val got = Bounds.distributedNE(alpha)
      assert(math.abs(got - want) < 0.005,
        s"alpha=$alpha: computed $got, paper prints $want")
    }
  }

  test("theorem1 concrete form") {
    assert(Bounds.theorem1(100, 50, 4) == 154.0 / 50.0)
  }

  test("all analytic bounds decrease as alpha grows (Table 1 row shape)") {
    val alphas = Seq(2.2, 2.4, 2.6, 2.8)
    def decreasing(xs: Seq[Double]): Boolean = xs.zip(xs.tail).forall { case (a, b) => a > b }
    assert(decreasing(alphas.map(Bounds.distributedNE)))
    assert(decreasing(alphas.map(Bounds.random1D(_, 256, dMax = 200000))))
    assert(decreasing(alphas.map(Bounds.grid2D(_, 256, dMax = 200000))))
    assert(decreasing(alphas.map(Bounds.dbh(_, 256, dMax = 200000))))
  }

  test("grid expectation never exceeds random's (fewer cells available)") {
    for (alpha <- Seq(2.2, 2.5, 2.8)) {
      assert(Bounds.grid2D(alpha, 256, dMax = 200000) <=
             Bounds.random1D(alpha, 256, dMax = 200000) + 1e-9)
    }
  }

  test("expected RF values are at least 1 and at most the mean degree cap") {
    for (alpha <- Seq(2.2, 2.5, 2.8)) {
      val r = Bounds.random1D(alpha, 256, dMax = 200000)
      assert(r >= 1.0 && r <= Zeta.meanDegree(alpha) + 0.1,
        s"alpha=$alpha random E[RF]=$r outside (1, E[d])")
    }
  }

  test("dbh expectation beats random (degree-aware hashing helps)") {
    for (alpha <- Seq(2.2, 2.5, 2.8)) {
      assert(Bounds.dbh(alpha, 256, dMax = 200000) <
             Bounds.random1D(alpha, 256, dMax = 200000),
        s"alpha=$alpha: DBH should not exceed random")
    }
  }
}
