// Multi-tenant service mode: admission control, quotas, cancellation,
// per-job observability (src/svc/service.hpp, docs/SERVICE.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <string>
#include <vector>

#include "clmpi/capi.h"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "simmpi/cluster.hpp"
#include "support/tenant.hpp"
#include "svc/service.hpp"
#include "svc/workloads.hpp"
#include "systems/profile.hpp"
#include "test_util.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace {

using namespace clmpi;

svc::Service::Options small_service(std::size_t max_active = 2) {
  svc::Service::Options opts;
  opts.workers = 1;
  opts.max_active = max_active;
  return opts;
}

svc::JobSpec halo_spec(int iterations = 4) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::halo;
  spec.nranks = 4;
  spec.iterations = iterations;
  return spec;
}

TEST(Service, RunsEachWorkloadKindToSuccess) {
  svc::Service service(small_service());
  std::vector<std::uint64_t> ids;
  for (svc::JobKind kind :
       {svc::JobKind::himeno, svc::JobKind::halo, svc::JobKind::chaos}) {
    svc::JobSpec spec;
    spec.kind = kind;
    spec.nranks = 2;
    spec.iterations = 3;
    spec.seed = 7;
    ids.push_back(service.submit(spec));
  }
  for (std::uint64_t id : ids) {
    const svc::JobResult r = service.wait(id);
    EXPECT_EQ(r.state, svc::JobState::succeeded) << r.error;
    EXPECT_EQ(r.status, Status::success);
    EXPECT_GT(r.makespan_s, 0.0);
    EXPECT_NE(r.trace_hash, 0u);
  }
  const svc::Service::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Service, TraceHashMatchesStandaloneRun) {
  // The same spec through the service (shared pool, job tag, quotas armed)
  // and through a plain Cluster::run must trace identically: tenancy and
  // accounting are virtual-time-neutral.
  svc::JobSpec spec = halo_spec(5);
  spec.quotas.staging_bytes = 64 << 20;
  spec.quotas.mailbox_depth = 1024;

  vt::Tracer standalone;
  {
    mpi::Cluster::Options opts;
    opts.nranks = spec.nranks;
    opts.profile = &sys::profile_by_name(spec.profile);
    opts.tracer = &standalone;
    mpi::Cluster::run(opts, svc::make_workload(spec));
  }

  svc::Service service(small_service());
  const svc::JobResult r = service.wait(service.submit(spec));
  ASSERT_EQ(r.state, svc::JobState::succeeded) << r.error;
  EXPECT_EQ(r.trace_hash, standalone.hash());
}

TEST(Service, ConcurrentTenantsTraceLikeSoloTenants) {
  // Three co-tenant copies of three distinct specs: every copy must hash
  // exactly like its kin — co-tenancy may interleave jobs but never reorder
  // any single job's schedule. Its usage high-water marks follow from that
  // schedule, so they repeat across copies too.
  svc::Service service(small_service(3));
  std::vector<svc::JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    svc::JobSpec spec;
    spec.kind = static_cast<svc::JobKind>(i);
    spec.nranks = 2;
    spec.iterations = 3;
    spec.seed = 11;
    specs.push_back(spec);
  }
  std::vector<std::uint64_t> ids;
  for (int copy = 0; copy < 3; ++copy) {
    for (const svc::JobSpec& spec : specs) ids.push_back(service.submit(spec));
  }
  std::vector<svc::JobResult> results;
  for (std::uint64_t id : ids) {
    results.push_back(service.wait(id));
    ASSERT_EQ(results.back().state, svc::JobState::succeeded) << results.back().error;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const svc::JobResult& solo = results[i];
    for (std::size_t copy = 1; copy < 3; ++copy) {
      const svc::JobResult& kin = results[i + copy * specs.size()];
      EXPECT_EQ(solo.trace_hash, kin.trace_hash) << "kind " << i;
      EXPECT_EQ(solo.usage.mailbox_hwm, kin.usage.mailbox_hwm) << "kind " << i;
      EXPECT_EQ(solo.usage.staging_hwm, kin.usage.staging_hwm) << "kind " << i;
    }
  }
}

TEST(JobControl, QuotaExactlyAtLimitIsAdmitted) {
  // The quota boundary is inclusive: a charge that lands EXACTLY on the
  // limit is admitted; the first charge past it is the one denied.
  tenant::JobQuotas quotas;
  quotas.mailbox_depth = 4;
  quotas.staging_bytes = 4096;
  tenant::JobControl ctrl(1, quotas);
  for (int i = 0; i < 4; ++i) ctrl.charge_mailbox();
  EXPECT_EQ(ctrl.usage().mailbox_depth, 4u);
  EXPECT_THROW(ctrl.charge_mailbox(), QuotaError);
  EXPECT_EQ(ctrl.usage().mailbox_depth, 4u) << "denied charge must roll back";
  EXPECT_EQ(ctrl.usage().mailbox_denials, 1u);
  ctrl.credit_mailbox();
  ctrl.charge_mailbox();  // back under the limit: admitted again
  EXPECT_EQ(ctrl.usage().mailbox_hwm, 4u);

  ctrl.charge_staging(4096);  // exactly the limit in one charge
  EXPECT_THROW(ctrl.charge_staging(1), QuotaError);
  EXPECT_EQ(ctrl.usage().staging_in_use, 4096u) << "denied charge must roll back";
  EXPECT_EQ(ctrl.usage().staging_hwm, 4096u);
  ctrl.credit_staging(4096);
  EXPECT_EQ(ctrl.usage().staging_in_use, 0u);
}

TEST(JobControl, StagingQuotaChargesExactBytes) {
  // Bounce buffers charge the bytes a transfer stages, not a rounded-up
  // size: a pinned 3 KiB send/receive pair fits a 6 KiB quota even when
  // both ends hold their buffer at once.
  tenant::JobQuotas quotas;
  quotas.staging_bytes = 6 * 1024;
  tenant::JobControl ctrl(1, quotas);
  constexpr std::size_t kBytes = 3 * 1024;
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  o.job = &ctrl;
  mpi::Cluster::run(o, [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(kBytes);
    const xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, kBytes,
                                  1 - rank.rank(), 3};
    const vt::TimePoint ready{rank.now_s()};
    if (rank.rank() == 0) {
      (void)xfer::send_device(ep, xfer::Strategy::pinned(), ready);
    } else {
      (void)xfer::recv_device(ep, xfer::Strategy::pinned(), ready);
    }
  });
  const tenant::JobControl::Usage u = ctrl.usage();
  EXPECT_EQ(u.staging_in_use, 0u);
  EXPECT_EQ(u.staging_denials, 0u);
  EXPECT_GT(u.staging_hwm, 0u);
  EXPECT_EQ(u.staging_hwm % kBytes, 0u) << "hwm " << u.staging_hwm;
}

TEST(Service, MailboxQuotaDenialFailsJobTyped) {
  // A quota far below the halo workload's pending-op demand must fail the
  // job with the typed status — and the failure must be CLEAN: peer ranks
  // blocked on the dead rank's messages are unwound by the cancel backstop
  // instead of deadlocking the shared pool.
  svc::Service service(small_service(1));
  svc::JobSpec over = halo_spec();
  over.quotas.mailbox_depth = 2;
  const svc::JobResult denied = service.wait(service.submit(over));
  EXPECT_EQ(denied.state, svc::JobState::failed);
  EXPECT_EQ(denied.status, Status::quota_exceeded) << denied.error;
  EXPECT_GE(denied.usage.mailbox_denials, 1u);

  // The service survives the failed tenant.
  const svc::JobResult next = service.wait(service.submit(halo_spec()));
  EXPECT_EQ(next.state, svc::JobState::succeeded) << next.error;
}

TEST(Service, StagingQuotaFailsOverrunningJobOnly) {
  // A himeno job needs staging buffers for its halo transfers; a 1-byte
  // staging quota must fail it with the typed status while a co-tenant
  // without quotas runs to completion.
  svc::Service service(small_service(2));
  svc::JobSpec starved;
  starved.kind = svc::JobKind::himeno;
  starved.nranks = 2;
  starved.iterations = 2;
  starved.quotas.staging_bytes = 1;
  const std::uint64_t starved_id = service.submit(starved);

  svc::JobSpec healthy;
  healthy.kind = svc::JobKind::himeno;
  healthy.nranks = 2;
  healthy.iterations = 2;
  const std::uint64_t healthy_id = service.submit(healthy);

  const svc::JobResult bad = service.wait(starved_id);
  EXPECT_EQ(bad.state, svc::JobState::failed);
  EXPECT_EQ(bad.status, Status::quota_exceeded) << bad.error;
  EXPECT_GE(bad.usage.staging_denials, 1u);

  const svc::JobResult good = service.wait(healthy_id);
  EXPECT_EQ(good.state, svc::JobState::succeeded) << good.error;
  EXPECT_EQ(good.usage.staging_denials, 0u);
}

TEST(Service, RankQuotaRejectsAtSubmission) {
  svc::Service service(small_service());
  svc::JobSpec spec = halo_spec();
  spec.nranks = 8;
  spec.quotas.max_ranks = 4;
  EXPECT_THROW(service.submit(spec), QuotaError);
}

TEST(Service, AdmissionRejectsWhenQueueFull) {
  svc::Service::Options opts = small_service(1);
  opts.queue_limit = 2;
  svc::Service service(opts);

  std::vector<std::uint64_t> accepted;
  bool rejected = false;
  for (int i = 0; i < 8 && !rejected; ++i) {
    try {
      accepted.push_back(service.submit(halo_spec(20)));
    } catch (const RejectedError&) {
      rejected = true;
    }
  }
  // One running + queue_limit queued is the most the service admits at
  // once, so the 8-submit burst must hit the bound.
  EXPECT_TRUE(rejected);
  EXPECT_LE(accepted.size(), 7u);
  EXPECT_GE(service.stats().rejected, 1u);
  for (std::uint64_t id : accepted) {
    const svc::JobResult r = service.wait(id);
    EXPECT_EQ(r.state, svc::JobState::succeeded) << r.error;
  }
}

TEST(Service, CancelMidRunReportsCancelled) {
  svc::Service service(small_service(1));
  svc::JobSpec slow;
  slow.kind = svc::JobKind::chaos;
  slow.nranks = 2;
  slow.iterations = 200000;  // far longer than the cancel latency
  const std::uint64_t id = service.submit(slow);
  while (service.counters(id).state == svc::JobState::queued) {
  }
  EXPECT_TRUE(service.cancel(id));
  const svc::JobResult r = service.wait(id);
  EXPECT_EQ(r.state, svc::JobState::cancelled) << r.error;
  EXPECT_EQ(r.status, Status::cancelled);
  EXPECT_FALSE(service.cancel(id)) << "terminal job must report cancel misses";

  // The pool survives a cancelled tenant: the next job runs normally.
  const svc::JobResult next = service.wait(service.submit(halo_spec()));
  EXPECT_EQ(next.state, svc::JobState::succeeded) << next.error;
}

TEST(Service, CancelRacingCompletionAlwaysTerminates) {
  // Fire cancels at jobs short enough that completion often wins: every
  // outcome must be a clean terminal state (succeeded or cancelled, never a
  // hang or a third state), and the service must stay healthy throughout.
  svc::Service service(small_service(2));
  for (int round = 0; round < 12; ++round) {
    svc::JobSpec spec;
    spec.kind = svc::JobKind::halo;
    spec.nranks = 2;
    spec.iterations = 1 + round % 3;
    const std::uint64_t id = service.submit(spec);
    service.cancel(id);
    const svc::JobResult r = service.wait(id);
    EXPECT_TRUE(r.state == svc::JobState::succeeded ||
                r.state == svc::JobState::cancelled)
        << to_string(r.state) << ": " << r.error;
    if (r.state == svc::JobState::cancelled) {
      EXPECT_EQ(r.status, Status::cancelled);
    }
  }
  const svc::JobResult last = service.wait(service.submit(halo_spec()));
  EXPECT_EQ(last.state, svc::JobState::succeeded) << last.error;
}

TEST(Service, DeadlineCancelsOverdueJob) {
  svc::Service service(small_service(1));
  svc::JobSpec spec;
  spec.kind = svc::JobKind::chaos;
  spec.nranks = 2;
  spec.iterations = 200000;
  spec.deadline_s = 0.05;
  const svc::JobResult r = service.wait(service.submit(spec));
  EXPECT_EQ(r.state, svc::JobState::cancelled) << r.error;
  EXPECT_EQ(r.status, Status::cancelled);
}

TEST(Service, QueuedJobPastDeadlineIsCancelledWhileQueued) {
  // One slot, held by a long job: the second job never leaves the queue, so
  // its deadline must end it there, read by wait(), while the first still
  // runs. Nothing but the waiting client watches the clock.
  svc::Service service(small_service(1));
  svc::JobSpec slow;
  slow.kind = svc::JobKind::chaos;
  slow.nranks = 2;
  slow.iterations = 200000;
  const std::uint64_t running = service.submit(slow);
  svc::JobSpec late = halo_spec();
  late.deadline_s = 0.02;
  const auto submitted = std::chrono::steady_clock::now();
  const std::uint64_t queued = service.submit(late);
  const svc::JobResult r = service.wait(queued);
  const double lateness_ms =
      1e3 * (std::chrono::duration<double>(std::chrono::steady_clock::now() - submitted).count() -
             late.deadline_s);
  EXPECT_EQ(r.state, svc::JobState::cancelled) << r.error;
  EXPECT_EQ(r.status, Status::cancelled);
  EXPECT_EQ(service.counters(running).state, svc::JobState::running);
  RecordProperty("lateness_ms", std::to_string(lateness_ms));
  EXPECT_TRUE(service.cancel(running));
  EXPECT_EQ(service.wait(running).state, svc::JobState::cancelled);
}

TEST(Service, OneWorkerRunsManyActiveJobs) {
  // Four clusters share one worker, and that worker starts each queued job
  // as it finishes the last: a launch that blocked the worker would hang
  // here. Every job must still trace like its standalone run.
  svc::Service::Options opts;
  opts.workers = 1;
  opts.max_active = 4;
  svc::Service service(opts);
  std::vector<svc::JobSpec> specs;
  for (int i = 0; i < 16; ++i) {
    svc::JobSpec spec;
    spec.kind = static_cast<svc::JobKind>(i % 3);
    spec.nranks = 2 + 2 * (i % 2);
    spec.iterations = 2 + i % 3;
    spec.seed = 31 + static_cast<std::uint64_t>(i);
    specs.push_back(spec);
  }
  std::vector<std::uint64_t> ids;
  for (const svc::JobSpec& spec : specs) ids.push_back(service.submit(spec));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const svc::JobResult r = service.wait(ids[i]);
    ASSERT_EQ(r.state, svc::JobState::succeeded) << "job " << i << ": " << r.error;
    vt::Tracer standalone;
    mpi::Cluster::Options copt;
    copt.nranks = specs[i].nranks;
    copt.profile = &sys::profile_by_name(specs[i].profile);
    copt.tracer = &standalone;
    mpi::Cluster::run(copt, svc::make_workload(specs[i]));
    EXPECT_EQ(r.trace_hash, standalone.hash()) << "job " << i;
  }
}

TEST(Service, OwnsNoThreadsBeyondItsWorkers) {
  // Jobs run on the pool's workers and are started by the submitter or by
  // the worker that finished the previous one; the service adds no thread.
  const auto threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  // TSan starts its helper thread with the process's first pthread_create;
  // get that out of the way before counting.
  std::thread([] {}).join();
  const std::size_t before = threads();
  svc::Service service(svc::Service::Options{.workers = 2, .max_active = 4});
  EXPECT_EQ(threads(), before + 2);
  const svc::JobResult r = service.wait(service.submit(halo_spec()));
  EXPECT_EQ(r.state, svc::JobState::succeeded) << r.error;
  EXPECT_EQ(threads(), before + 2);
}

TEST(Service, PerJobCounterNamespacesAreIsolated) {
  svc::Service service(small_service(2));
  const std::uint64_t a = service.submit(halo_spec(3));
  const std::uint64_t b = service.submit(halo_spec(6));
  const svc::JobResult ra = service.wait(a);
  const svc::JobResult rb = service.wait(b);
  ASSERT_EQ(ra.state, svc::JobState::succeeded) << ra.error;
  ASSERT_EQ(rb.state, svc::JobState::succeeded) << rb.error;
  ASSERT_GT(rb.usage.messages, ra.usage.messages);

  // Each job's counters live in its own record: counters() reads back, per
  // id, exactly what that job's wait() returned.
  const auto expect_same_usage = [](const svc::JobResult& got, const svc::JobResult& want) {
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.makespan_s, want.makespan_s);
    EXPECT_EQ(got.usage.messages, want.usage.messages);
    EXPECT_EQ(got.usage.staging_hwm, want.usage.staging_hwm);
    EXPECT_EQ(got.usage.staging_denials, want.usage.staging_denials);
    EXPECT_EQ(got.usage.mailbox_hwm, want.usage.mailbox_hwm);
    EXPECT_EQ(got.usage.mailbox_denials, want.usage.mailbox_denials);
  };
  const svc::JobResult ca = service.counters(a);
  const svc::JobResult cb = service.counters(b);
  expect_same_usage(ca, ra);
  expect_same_usage(cb, rb);
  EXPECT_NE(ca.usage.messages, cb.usage.messages) << "tenants must not share counters";
}

TEST(Service, JobResultsStayOutOfTheRegistry) {
  // A job's results belong to its JobResult; the process-wide registry,
  // whose entries are never freed, must not grow a series per job.
  svc::Service service(small_service(1));
  const std::uint64_t id = service.submit(halo_spec());
  const svc::JobResult r = service.wait(id);
  ASSERT_EQ(r.state, svc::JobState::succeeded) << r.error;
  const std::string prefix = "job." + std::to_string(id) + ".";
  for (const obs::Sample& s : obs::Registry::instance().snapshot()) {
    EXPECT_NE(s.name.rfind(prefix, 0), 0u) << "per-job series " << s.name;
  }
}

TEST(Service, RetiresOldestTerminalRecords) {
  // queue_limit + max_active = 3: the service keeps the last three
  // terminal results and retires older ones.
  svc::Service::Options opts = small_service(1);
  opts.queue_limit = 2;
  svc::Service service(opts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(service.submit(halo_spec(2)));
    const svc::JobResult r = service.wait(ids.back());
    ASSERT_EQ(r.state, svc::JobState::succeeded) << r.error;
  }
  const auto expect_retired = [](auto&& call) {
    try {
      call();
      ADD_FAILURE() << "a retired job id must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::invalid_job);
      EXPECT_NE(std::string(e.what()).find("retired"), std::string::npos) << e.what();
    }
  };
  expect_retired([&] { (void)service.counters(ids[0]); });
  expect_retired([&] { (void)service.wait(ids[0]); });
  expect_retired([&] { (void)service.cancel(ids[0]); });
  expect_retired([&] { (void)service.counters(ids[1]); });
  for (std::size_t i = 2; i < ids.size(); ++i) {
    EXPECT_EQ(service.counters(ids[i]).state, svc::JobState::succeeded) << "job " << ids[i];
  }
}

TEST(Service, WaitUnknownJobThrowsTyped) {
  svc::Service service(small_service());
  try {
    service.wait(999);
    FAIL() << "wait(999) must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::invalid_job);
  }
}

TEST(ServiceCApi, JobRoundTrip) {
  ASSERT_EQ(clmpiServiceStart(2, 8), CL_SUCCESS);
  EXPECT_EQ(clmpiServiceStart(2, 8), CL_INVALID_OPERATION);

  clmpi_job_desc desc{};
  desc.kind = CLMPI_JOB_KIND_HALO;
  desc.nranks = 2;
  desc.iterations = 3;
  cl_int err = CL_INVALID_OPERATION;
  const clmpi_job job = clmpiSubmitJob(&desc, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_NE(job, 0u);

  clmpi_job_result result{};
  ASSERT_EQ(clmpiWaitJob(job, &result), CL_SUCCESS);
  EXPECT_EQ(result.state, CLMPI_JOB_SUCCEEDED);
  EXPECT_EQ(result.status, CL_SUCCESS);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_NE(result.trace_hash, 0u);
  EXPECT_GT(result.messages, 0u);

  EXPECT_EQ(clmpiCancelJob(job), CLMPI_CANCELLED);
  EXPECT_EQ(clmpiJobCounters(job, &result), CL_SUCCESS);
  EXPECT_EQ(clmpiWaitJob(7777, &result), CLMPI_INVALID_JOB);

  desc.nranks = 16;
  desc.quota_max_ranks = 2;
  EXPECT_EQ(clmpiSubmitJob(&desc, &err), 0u);
  EXPECT_EQ(err, CLMPI_QUOTA_EXCEEDED);

  ASSERT_EQ(clmpiServiceStop(), CL_SUCCESS);
  EXPECT_EQ(clmpiServiceStop(), CL_INVALID_OPERATION);
}

}  // namespace
