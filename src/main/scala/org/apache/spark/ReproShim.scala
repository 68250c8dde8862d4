package org.apache.spark

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit, TimeoutException}

import org.apache.spark.rdd.RDD
import org.apache.spark.rpc.{RpcCallContext, RpcEnv, ThreadSafeRpcEndpoint}
import org.apache.spark.scheduler.{SparkListenerEvent, TaskSchedulerImpl}
import org.apache.spark.util.RpcUtils

import scala.concurrent.Await
import scala.concurrent.duration.Duration
import scala.reflect.ClassTag

/** The `private[spark]` parts of Spark that the program uses. */
object ReproShim {

  /** Releases a cached RDD's blocks as `RDD.unpersist` does, without the WARN
    * that `unpersist` logs each time for a `localCheckpoint`ed RDD.
    */
  def release(rdd: RDD[_], blocking: Boolean): Unit = rdd.sparkContext.unpersistRDD(rdd.id, blocking)

  /** How many tasks the cluster runs at once: a barrier stage must fit. */
  def maxConcurrentTasks(sc: SparkContext): Int =
    sc.maxNumConcurrentTasks(sc.resourceProfileManager.defaultResourceProfile)

  /** How many attempts the scheduler gives a task (`local[n, f]` gives f). */
  def taskAttempts(sc: SparkContext): Int = sc.taskScheduler match {
    case s: TaskSchedulerImpl => s.maxTaskFailures
    case _ => 1
  }

  /** Checkpoints `rdd` if it is marked for it, as `SparkContext.runJob`
    * does after each job and `submitJob` does not.
    */
  def checkpoint(rdd: RDD[_]): Unit = rdd.doCheckpoint()

  /** Posts `event` to every listener on the bus. */
  def post(sc: SparkContext, event: SparkListenerEvent): Unit = sc.listenerBus.post(event)

  /** Waits, up to `ms`, until every listener has seen every posted event. */
  def drainListenerBus(sc: SparkContext, ms: Long): Unit =
    try sc.listenerBus.waitUntilEmpty(ms) catch { case _: TimeoutException => }

  /** Whether a job failed because one of its stages failed, which a task
    * failure causes, as opposed to being cancelled. The DAG scheduler fails
    * such a job with this message.
    */
  def stageFailed(e: Throwable): Boolean =
    e.isInstanceOf[SparkException] && e.getMessage != null &&
      e.getMessage.startsWith("Job aborted due to stage failure")

  /** A named endpoint on the driver that queues the asks of tasks for a
    * driver thread to take and answer. In local mode the asks and answers
    * pass by reference: neither side may change an array it has sent.
    */
  final class Mailbox(sc: SparkContext, val name: String) {
    private val asks = new LinkedBlockingQueue[Ask]()
    private val endpoint = new ThreadSafeRpcEndpoint {
      override val rpcEnv: RpcEnv = sc.env.rpcEnv
      override def receiveAndReply(ctx: RpcCallContext): PartialFunction[Any, Unit] = {
        case message => asks.put(new Ask(message, ctx))
      }
    }
    private val ref = sc.env.rpcEnv.setupEndpoint(name, endpoint)

    /** The next ask, or null if none comes within `ms`. */
    def poll(ms: Long): Ask = asks.poll(ms, TimeUnit.MILLISECONDS)

    /** Unregisters the endpoint; asks still queued go unanswered. */
    def close(): Unit = sc.env.rpcEnv.stop(ref)
  }

  /** One ask a task made of a [[Mailbox]]. */
  final class Ask(val message: Any, ctx: RpcCallContext) {
    def reply(answer: Any): Unit = ctx.reply(answer)
  }

  /** A task's handle on the driver's mailbox `name`. */
  final class MailboxClient(name: String, sliceMs: Long) {
    private val env = SparkEnv.get
    private val ref = RpcUtils.makeDriverRef(name, env.conf, env.rpcEnv)
    private val timeout = RpcUtils.askRpcTimeout(env.conf)

    /** Asks the mailbox and waits for the answer, in slices of `sliceMs`,
      * leaving with `TaskKilledException` once the task is killed.
      */
    def ask[T: ClassTag](message: Any): T = {
      val answer = ref.ask[T](message, timeout)
      val ctx = TaskContext.get()
      val slice = Duration(sliceMs, TimeUnit.MILLISECONDS)
      while (!answer.isCompleted) {
        ctx.killTaskIfInterrupted()
        try Await.ready(answer, slice) catch { case _: TimeoutException => }
      }
      answer.value.get.get
    }
  }
}
