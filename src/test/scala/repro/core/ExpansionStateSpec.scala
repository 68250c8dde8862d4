package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.DistributedNE.{Config, Report, Step}

class ExpansionStateSpec extends AnyFunSuite {

  /** A cell's report: per-partition allocations, (vertex, local D_rest)
    * of its synced vertices, (vertex, decrement) drops and restart samples.
    */
  private def report(delta: Seq[Long], drest: Seq[(Long, Int)] = Nil, drops: Seq[(Long, Int)] = Nil,
                     samples: Seq[Long] = Nil): Report =
    new Report(delta.toArray, drest.map(_._1).toArray, drest.map(_._2).toArray,
      drops.map(_._1).toArray, drops.map(_._2).toArray, samples.toArray)

  /** A step whose sync list holds the given new (vertex, partition) pairs. */
  private def synced(pairs: (Long, Int)*): Step =
    Step(Array.emptyLongArray, Array.emptyIntArray, Array.emptyLongArray, Array.emptyLongArray,
      pairs.map(_._1).toArray, pairs.map(_._2).toArray)

  /** Absorbs one cell's report of new boundary pairs (vertex, partition,
    * local D_rest) and decrements.
    */
  private def absorbOne(e: ExpansionState, p: Int, drest: Seq[(Long, Int, Int)],
                        drops: Seq[(Long, Int)] = Nil): Unit =
    e.absorb(synced(drest.map(x => (x._1, x._2)): _*),
      Array(report(Seq.fill(p)(0L), drest.map(x => (x._1, x._3)).distinct, drops)))

  /** A step's selection as (vertex, partition) pairs, in order. */
  private def selected(s: Step): Seq[(Long, Int)] = s.selVertex.toSeq.zip(s.selPart)

  /** Expansion processes over `numEdges` edges and 4 cells, with the given
    * boundary reports absorbed; the cap is `alpha · numEdges / p`.
    */
  private def withBoundary(p: Int, drest: Seq[(Long, Int, Int)], lambda: Double = 1.0,
                           alpha: Double = 1.5, numEdges: Long = 100L): ExpansionState = {
    val e = new ExpansionState(Config(p, alpha = alpha, lambda = lambda), numEdges, 4, Array.empty)
    absorbOne(e, p, drest)
    e
  }

  test("insert/pop returns the minimum D_rest first") {
    val e = withBoundary(1, Seq((10L, 0, 5), (11L, 0, 2), (12L, 0, 9)), lambda = 0.1)
    assert(Seq.fill(3)(e.select().selVertex.head) == Seq(11L, 10L, 12L))
  }

  test("ties in D_rest break by vertex id (deterministic pops)") {
    val e = withBoundary(1, Seq((7L, 0, 3), (4L, 0, 3), (9L, 0, 3)), lambda = 0.1)
    assert(Seq.fill(3)(e.select().selVertex.head) == Seq(4L, 7L, 9L))
  }

  test("one report sums the cells' local D_rest into the global D_rest") {
    val e = new ExpansionState(Config(1, lambda = 0.1), 100L, 4, Array.empty)
    e.absorb(synced((1L, 0), (2L, 0)),
      Array(report(Seq(0L), Seq((1L, 2), (2L, 3))), report(Seq(0L), Seq((1L, 2)))))
    assert(selected(e.select()) == Seq((2L, 0))) // vertex 1 has global D_rest 4
  }

  test("popKMin pops ceil(lambda * |B|) vertices") {
    val e = withBoundary(1, (1 to 100).map(i => (i.toLong, 0, 1)), lambda = 0.1, alpha = 2.0, numEdges = 1000L)
    assert(e.select().selVertex.length == 10)
    assert(e.select().selVertex.length == 9) // ⌈0.1 · 90⌉
  }

  test("popKMin pops at least one vertex even for tiny lambda") {
    val e = withBoundary(1, Seq((1L, 0, 5), (2L, 0, 5)), lambda = 0.0001)
    assert(e.select().selVertex.length == 1)
  }

  test("budget throttle stops popping once D_rest sum reaches the budget") {
    // cap = 1.75 · 20 = 35: pops of 10 each reach 10, 20, 30 < 35, so a
    // 4th is popped, then the throttle stops
    val e = withBoundary(1, (1 to 100).map(i => (i.toLong, 0, 10)), alpha = 1.75, numEdges = 20L)
    assert(e.select().selVertex.length == 4)
  }

  test("a partition at or past the cap still pops one vertex until it is done") {
    val e = withBoundary(1, Seq((1L, 0, 50), (2L, 0, 50), (3L, 0, 50)), alpha = 1.5)
    e.absorb(synced(), Array(report(Seq(150L)))) // |E_0| = cap = 150: budget max(1, 0)
    assert(selected(e.select()) == Seq((1L, 0)))
  }

  test("empty boundary pops nothing") {
    val e = withBoundary(2, Seq((3L, 0, 1)))
    assert(selected(e.select()) == Seq((3L, 0)))
  }

  test("the quota is ceil((cap - |E_p|) / A): at least 1 below the cap, 0 once done") {
    // cap = 1.5 · 100 / 2 = 75, A = 4 cells
    val e = withBoundary(2, Seq((1L, 0, 1), (2L, 1, 1), (3L, 0, 1), (4L, 1, 1), (6L, 1, 1)), lambda = 0.1)
    val first = e.select()
    assert(first.quota.toSeq == Seq(19L, 19L) && first.sizes.toSeq == Seq(0L, 0L))
    e.absorb(synced(), Array(report(Seq(70L, 5L)), report(Seq(5L, 0L))))
    val second = e.select()
    assert(second.quota.toSeq == Seq(1L, 18L) && second.sizes.toSeq == Seq(75L, 5L))
    e.absorb(synced(), Array(report(Seq(1L, 0L))))
    val third = e.select()
    assert(third.quota.toSeq == Seq(0L, 18L))
    assert(third.selPart.forall(_ == 1), "a done partition selects nothing")
    assert(e.partitionSizes.toSeq == Seq(76L, 5L) && e.remaining == 100L - 81L)
  }

  test("size and done are driver-maintained plain state") {
    val e = withBoundary(2, Seq((1L, 0, 1), (2L, 1, 1), (3L, 1, 1)), numEdges = 10L) // cap 7.5
    e.absorb(synced((4L, 0), (5L, 1)), Array(report(Seq(4L, 2L)), report(Seq(4L, 0L), Seq((4L, 1), (5L, 1)))))
    assert(e.partitionSizes.toSeq == Seq(8L, 2L) && e.remaining == 0L)
    // partition 0 is past the cap, so done: it selects nothing, gets no
    // quota and takes no new boundary vertex
    val step = e.select()
    assert(selected(step) == Seq((2L, 1), (3L, 1), (5L, 1)) && step.quota(0) == 0L)
  }

  test("restarts take pool vertices in order and skip the ones already selected") {
    val e = new ExpansionState(Config(3), 100L, 4, Array(7L, 7L, 8L, 9L))
    assert(selected(e.select()) == Seq((7L, 0), (8L, 1), (9L, 2)))
    e.absorb(synced((5L, 0)), Array(report(Seq(0L, 0L, 0L), Seq((5L, 1)), samples = Seq(5L, 6L)),
      report(Seq(0L, 0L, 0L), samples = Seq(6L, 9L))))
    // partition 0 pops 5; 1 and 2 restart from the deduplicated pool 5, 6, 9
    assert(selected(e.select()) == Seq((5L, 0), (6L, 1), (9L, 2)))
  }

  // random-restart (v, p) pairs are marked expanded when select picks them,
  // so their reports are dropped in the restart iteration and later ones
  test("markExpanded blocks later inserts (random-restart vertices)") {
    val e = new ExpansionState(Config(2), 100L, 4, Array(7L))
    assert(selected(e.select()) == Seq((7L, 0)))
    e.absorb(synced((7L, 0), (8L, 0), (7L, 1)), Array(report(Seq(1L, 0L), Seq((7L, 4), (8L, 3)))))
    assert(selected(e.select()) == Seq((7L, 1), (8L, 0))) // (7, 0) was not enqueued
    e.absorb(synced((7L, 0), (9L, 0)), Array(report(Seq(1L, 1L), Seq((7L, 3), (9L, 2)), drops = Seq((7L, 1)))))
    assert(selected(e.select()) == Seq((9L, 0))) // nor in a later iteration
  }

  test("no expandable vertex fails loudly") {
    val e = new ExpansionState(Config(2), 100L, 4, Array.empty)
    intercept[IllegalArgumentException](e.select())
  }

  test("a vertex whose global D_rest reached 0 is never selected") {
    val e = withBoundary(1, Seq((1L, 0, 2), (2L, 0, 5)), lambda = 1.0)
    // two cells' decrements of vertex 1 sum to its D_rest
    e.absorb(synced(), Array(report(Seq(1L), drops = Seq((1L, 1), (2L, 1))), report(Seq(1L), drops = Seq((1L, 1)))))
    val step = e.select()
    assert(selected(step) == Seq((2L, 0)), "k = |B_0| = 1 live vertex")
    e.absorb(synced(), Array(report(Seq(0L))))
    assert(e.iterationStats.last.skipped == 1, "the exhausted vertex's entry is skipped")
    intercept[IllegalArgumentException](e.select()) // nothing live, no pool
  }

  test("a decrement re-orders pops") {
    val e = withBoundary(1, Seq((1L, 0, 5), (2L, 0, 3)), lambda = 0.1)
    absorbOne(e, 1, Nil, drops = Seq((1L, 4))) // vertex 1: 5 → 1, below vertex 2's 3
    assert(Seq.fill(2)(e.select().selVertex.head) == Seq(1L, 2L))
  }

  test("k counts live entries only") {
    val e = withBoundary(1, (1 to 10).map(i => (i.toLong, 0, 1)), lambda = 0.5, alpha = 2.0)
    absorbOne(e, 1, Nil, drops = (1 to 6).map(i => (i.toLong, 1)))
    // 4 live of 10 heap entries: k = ⌈0.5 · 4⌉ = 2
    assert(e.select().selVertex.toSeq == Seq(7L, 8L))
  }

  test("one Step never lists a vertex twice") {
    // all three boundaries hold vertices 1 and 2; partition 0 takes both
    val e = withBoundary(3, for (v <- Seq(1L, 2L); q <- 0 until 3) yield (v, q, 1), alpha = 3.0)
    val step = e.select()
    assert(selected(step) == Seq((1L, 0), (2L, 0)))
    assert(step.selVertex.distinct.length == step.selVertex.length)
    e.absorb(synced((1L, 0), (2L, 0)), Array(report(Seq(0L, 0L, 0L))))
    assert(e.iterationStats.last == DistributedNE.IterationStats(2, 0, 0, 4, 0L, 2))
  }

  test("a vertex taken by a lower-id partition stays in the other partition's boundary") {
    // B_0 = {1, 2} and B_1 = {1, 3}, k = 1 each
    val e = withBoundary(2, Seq((1L, 0, 1), (2L, 0, 2), (1L, 1, 1), (3L, 1, 3)), lambda = 0.5)
    assert(selected(e.select()) == Seq((1L, 0), (3L, 1)), "partition 1 gives 1 back and pops 3")
    absorbOne(e, 2, Nil)
    assert(selected(e.select()) == Seq((1L, 1), (2L, 0)), "1 is still in B_1")
  }
}
