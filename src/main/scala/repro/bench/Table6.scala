package repro.bench

import org.apache.spark.sql.SparkSession

/** Table 6 — replication factor on (non-skewed) road networks, all eight
  * partitioners. The paper's point: on such graphs the direct/indirect
  * optimizers (ParMETIS, Sheep, XtraPuLP, D.NE) all reach RF ≈ 1, so the
  * traditional vertex partitioning can be a fine choice — D.NE matches them
  * while the hash family stays 2–4× worse.
  */
object Table6 {

  val P = 64
  val methods = Seq("Rand.", "2D-R.", "Obli.", "H.G.", "P.M.", "Sheep", "X.P.", "D.NE")

  val paper: Map[String, Seq[Double]] = Map( // Calif., Penn., Tex.
    "Rand."  -> Seq(3.72, 3.74, 3.70),
    "2D-R."  -> Seq(3.54, 3.55, 3.51),
    "Obli."  -> Seq(2.13, 2.14, 2.13),
    "H.G."   -> Seq(2.32, 2.40, 2.35),
    "P.M."   -> Seq(1.002, 1.004, 1.003),
    "Sheep"  -> Seq(1.03, 1.03, 1.03),
    "X.P."   -> Seq(1.12, 1.11, 1.12),
    "D.NE"   -> Seq(1.02, 1.01, 1.02),
  )

  def compute(spark: SparkSession): Seq[Map[String, Double]] =
    Datasets.roads.map { spec =>
      Runners.runAll(spark, spec, methods, P).map(r => r.method -> r.rf).toMap
    }

  def render(measured: Seq[Map[String, Double]]): String = {
    import TextTable.f
    val header = "Graph" +: methods.flatMap(m => Seq(s"$m(paper)", s"$m(ours)"))
    val rows = Datasets.roads.zipWithIndex.map { case (spec, gi) =>
      spec.paperName +: methods.flatMap { m =>
        Seq(f(paper(m)(gi), 3), f(measured(gi)(m), 3))
      }
    }
    TextTable.render(
      s"Table 6: replication factor on road networks, |P|=$P (-like lattices)",
      header, rows)
  }

  def run(spark: SparkSession): String = render(compute(spark))
}
