package repro.graph

import org.scalacheck.{Gen, Test}
import org.scalacheck.Prop.forAll
import org.scalatest.funsuite.AnyFunSuite

object PartitionSetsSpec {
  private sealed trait Op
  private final case class Add(lv: Int, p: Int) extends Op
  private final case class Clear(lv: Int) extends Op
}

class PartitionSetsSpec extends AnyFunSuite {
  import PartitionSetsSpec._

  /** Whether `sets` holds exactly `model`, read through every accessor. */
  private def agrees(sets: PartitionSets, model: Seq[Set[Int]], p: Int): Boolean =
    model.indices.forall { lv =>
      sets.toArray(lv).toSeq == model(lv).toSeq.sorted &&
        (0 until p).forall(q => sets.contains(lv, q) == model(lv)(q)) &&
        (0 until sets.words).forall { w =>
          sets.word(lv, w) == model(lv).filter(_ >>> 6 == w).foldLeft(0L)((b, q) => b | (1L << (q & 63)))
        }
    }

  test("PartitionSets behaves like one Set[Int] per vertex (ScalaCheck)") {
    val cases = for {
      p <- Gen.oneOf(1, 63, 64, 65, 130, 256)
      n <- Gen.choose(1, 5)
      op = Gen.frequency(
        8 -> Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, p - 1)).map { case (lv, q) => Add(lv, q) },
        // crowd the last words, where an off-by-one in the layout would show
        2 -> Gen.zip(Gen.choose(0, n - 1), Gen.choose(math.max(0, p - 3), p - 1)).map { case (lv, q) => Add(lv, q) },
        1 -> Gen.choose(0, n - 1).map(Clear(_)))
      ops <- Gen.listOf(op)
      copyAt <- Gen.choose(0, ops.length)
    } yield (p, n, ops, copyAt)

    val prop = forAll(cases) { case (p, n, ops, copyAt) =>
      val sets = PartitionSets(n, p)
      val model = Array.fill(n)(Set.empty[Int])
      var copied: (PartitionSets, Vector[Set[Int]]) = null
      val addsReportNewness = ops.zipWithIndex.forall { case (op, i) =>
        if (i == copyAt) copied = (sets.copy(), model.toVector)
        op match {
          case Add(lv, q) =>
            val isNew = !model(lv)(q)
            model(lv) += q
            sets.add(lv, q) == isNew
          case Clear(lv) =>
            model(lv) = Set.empty
            sets.clear(lv)
            true
        }
      }
      if (copied == null) copied = (sets.copy(), model.toVector)
      val (copy, copyModel) = copied
      val copyMatched = agrees(copy, copyModel, p)
      // writing to the copy leaves the original untouched
      (0 until n).foreach(lv => (0 until p).foreach(copy.add(lv, _)))
      sets.words == (p + 63) / 64 && addsReportNewness && copyMatched &&
        agrees(sets, model.toSeq, p)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result)
  }
}
