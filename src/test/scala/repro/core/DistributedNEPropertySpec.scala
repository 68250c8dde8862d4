package repro.core

import org.scalacheck.{Gen, Test}
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalacheck.util.Pretty
import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, Grid2D, LocalMetrics}
import repro.theory.Bounds

/** Seed- and shape-sweep properties of Distributed NE: Theorem 1 and the
  * capacity constraint must hold for *every* run, not just a lucky seed.
  */
class DistributedNEPropertySpec extends SparkSpec {

  private def run(edges: Array[(Long, Long)], p: Int, seed: Long,
                  lambda: Double = 0.1): (Array[(Long, Long, Int)], DistributedNE.Result) = {
    val res = DistributedNE.partition(spark,
      spark.sparkContext.parallelize(edges.toSeq, 4),
      DistributedNE.Config(p, lambda = lambda, seed = seed))
    val t = res.assignments.collect()
    res.assignments.unpersist(blocking = false)
    (t, res)
  }

  private val skewed = TestGraphs.skewed(350, 2000, seed = 123)

  for (seed <- Seq(1L, 17L, 99L)) {
    test(s"seed=$seed: Theorem 1 bound, capacity, completeness all hold") {
      val (t, res) = run(skewed, 4, seed)
      assert(t.length == skewed.length)
      val rf = LocalMetrics.replicationFactor(t)
      val ub = Bounds.theorem1(skewed.length, LocalMetrics.numVertices(skewed), 4)
      assert(rf <= ub + 1e-9, s"RF $rf above bound $ub")
      val cap = 1.1 * skewed.length / 4
      res.partitionSizes.foreach { s =>
        assert(s <= cap + 4 + 1, s"partition size $s exceeds cap $cap plus quota slack")
      }
    }
  }

  for (lambda <- Seq(0.05, 0.5, 1.0)) {
    test(s"lambda=$lambda: bound and capacity hold under multi-expansion") {
      val (t, res) = run(skewed, 4, seed = 5, lambda = lambda)
      val rf = LocalMetrics.replicationFactor(t)
      val ub = Bounds.theorem1(skewed.length, LocalMetrics.numVertices(skewed), 4)
      assert(rf <= ub + 1e-9)
      assert(res.iterations >= 1)
    }
  }

  test("a denser community graph keeps D.NE ahead of random across seeds") {
    val edges = GraphGen.communityGraph(spark, 8, 7, 6, 16, seed = 9).collect()
    val rfRand = LocalMetrics.replicationFactor(
      TestGraphs.triples(edges, TestGraphs.randomAssign(edges, 8)))
    for (seed <- Seq(2L, 3L)) {
      val (t, _) = run(edges, 8, seed)
      val rf = LocalMetrics.replicationFactor(t)
      assert(rf < rfRand, s"seed=$seed: D.NE $rf vs random $rfRand")
    }
  }

  test("partition count equal to a non-power-of-two still works (1D fallback grid)") {
    val edges = TestGraphs.skewed(100, 600)
    val (t, _) = run(edges, 6, seed = 4)
    assert(t.length == edges.length)
    t.foreach(x => assert(x._3 >= 0 && x._3 < 6))
  }

  test("P = 100 (1×100 grid, memberships over two bitset words): exactly once, Theorem 1, EB") {
    val edges = GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 3).collect()
    val p = 100
    val (t, res) = run(edges, p, seed = 8)
    assert(t.length == edges.length && t.map(x => (x._1, x._2)).toSet == edges.toSet,
      "every edge must be allocated exactly once")
    t.foreach(x => assert(x._3 >= 0 && x._3 < p, s"partition out of range: $x"))
    val rf = LocalMetrics.replicationFactor(t)
    val ub = Bounds.theorem1(edges.length, LocalMetrics.numVertices(edges), p)
    assert(rf <= ub + 1e-9, s"RF $rf above bound $ub")
    // each of the A = p cells may overshoot a partition's cap by one edge
    val eb = res.partitionSizes.max / (edges.length.toDouble / p)
    assert(eb <= 1.1 + p.toDouble * p / edges.length, s"EB $eb")
  }

  test("vertex ids at the Long limits: exactly once, Theorem 1, EB") {
    val base = TestGraphs.skewed(300, 1500, seed = 9)
    val verts = base.flatMap { case (u, v) => Seq(u, v) }.distinct.sorted
    // the extremes first (to the hottest vertices), then ids counting
    // inwards from both limits
    val extremes = Iterator(Long.MinValue, Long.MinValue + 1, -1L, 0L, Long.MaxValue - 1, Long.MaxValue)
    val inward = Iterator.from(2).flatMap(i => Iterator(Long.MinValue + i, Long.MaxValue - i))
    val relabel = verts.iterator.zip(extremes ++ inward).toMap
    val edges = base.map { case (u, v) => (relabel(u), relabel(v)) }
    for (p <- Seq(4, 16)) {
      val (t, res) = run(edges, p, seed = 42)
      assert(t.length == edges.length && t.map(x => (x._1, x._2)).toSet == edges.toSet,
        s"P = $p: every edge must be allocated exactly once")
      t.foreach(x => assert(x._3 >= 0 && x._3 < p, s"P = $p: partition out of range: $x"))
      val rf = LocalMetrics.replicationFactor(t)
      val ub = Bounds.theorem1(edges.length, LocalMetrics.numVertices(edges), p)
      assert(rf <= ub + 1e-9, s"P = $p: RF $rf above bound $ub")
      val eb = res.partitionSizes.max / (edges.length.toDouble / p)
      assert(eb <= 1.1 + p.toDouble * p / edges.length, s"P = $p: EB $eb")
    }
  }

  test("random skewed graphs: exactly once, Theorem 1 and EB <= alpha + A*P/|E| (ScalaCheck)") {
    val runs = for {
      nV <- Gen.chooseNum(20, 150)
      density <- Gen.chooseNum(2, 6)
      graphSeed <- Gen.chooseNum(1L, 1000000L)
      p <- Gen.oneOf(2, 3, 4, 8)
      lambda <- Gen.chooseNum(1, 100).map(_ / 100.0)
      seed <- Gen.chooseNum(1L, 1000000L)
    } yield (TestGraphs.skewed(nV, nV * density, graphSeed), p, lambda, seed)
    // each case is a whole Spark run: a dozen keeps the suite's time flat
    val prop = forAllNoShrink(runs) { case (edges, p, lambda, seed) =>
      val (t, _) = run(edges, p, seed, lambda)
      val exactlyOnce = t.length == edges.length &&
        t.map(x => (x._1, x._2)).toSet == edges.toSet && t.forall(x => x._3 >= 0 && x._3 < p)
      val rf = LocalMetrics.replicationFactor(t)
      val ub = Bounds.theorem1(edges.length, LocalMetrics.numVertices(edges), p)
      // each of the A cells may overshoot a partition's cap by one edge
      val ebBound = 1.1 + Grid2D.forPartitions(p).numCells.toDouble * p / edges.length
      val eb = t.groupBy(_._3).values.map(_.length).max / (edges.length.toDouble / p)
      val where = s"|E|=${edges.length} P=$p lambda=$lambda seed=$seed"
      (exactlyOnce :| s"$where: not allocated exactly once") &&
        ((rf <= ub + 1e-9) :| s"$where: RF $rf above Theorem 1 bound $ub") &&
        ((eb <= ebBound) :| s"$where: EB $eb above $ebBound")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(12), prop)
    assert(result.passed, Pretty.pretty(result))
  }
}
