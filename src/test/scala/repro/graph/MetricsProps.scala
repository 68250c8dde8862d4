package repro.graph

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll

/** Property suite for the driver-side metric twins over arbitrary small
  * assignments.
  */
object MetricsProps extends Properties("LocalMetrics") {

  private val genAssign: Gen[Array[(Long, Long, Int)]] = for {
    n <- Gen.chooseNum(1, 60)
    p <- Gen.chooseNum(1, 8)
    edges <- Gen.listOfN(n, for {
      u <- Gen.chooseNum(0L, 40L)
      v <- Gen.chooseNum(0L, 40L)
      q <- Gen.chooseNum(0, p - 1)
    } yield (math.min(u, v), math.max(u, v) + 1, q))
  } yield edges.distinct.toArray

  property("RF >= 1") = forAll(genAssign) { a =>
    LocalMetrics.replicationFactor(a) >= 1.0 - 1e-12
  }

  property("RF <= number of used partitions") = forAll(genAssign) { a =>
    val parts = a.map(_._3).distinct.length
    LocalMetrics.replicationFactor(a) <= parts + 1e-12
  }

  property("EB >= 1 and VB >= 1") = forAll(genAssign) { a =>
    LocalMetrics.edgeBalance(a) >= 1.0 - 1e-12 &&
    LocalMetrics.vertexBalance(a) >= 1.0 - 1e-12
  }

  property("single-partition assignment has RF exactly 1") = forAll(genAssign) { a0 =>
    val a = a0.map { case (u, v, _) => (u, v, 0) }
    math.abs(LocalMetrics.replicationFactor(a) - 1.0) < 1e-12
  }

  property("numVertices counts distinct endpoints") = forAll(genAssign) { a =>
    val expect = a.flatMap(t => Seq(t._1, t._2)).distinct.length.toLong
    LocalMetrics.numVertices(a.map(t => (t._1, t._2))) == expect
  }

  property("duplicating every edge into a second partition doubles RF") =
    forAll(genAssign) { a0 =>
      val a = a0.map { case (u, v, _) => (u, v, 0) }
      val doubled = a ++ a.map { case (u, v, _) => (u, v, 1) }
      Prop(math.abs(LocalMetrics.replicationFactor(doubled) - 2.0) < 1e-12)
    }
}
