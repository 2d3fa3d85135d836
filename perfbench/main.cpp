// perfbench: pario's benchmark.  Three closed-loop workloads, one per
// request stream Crockett's organizations imply, driven by 4 client
// threads through the library's public APIs:
//
//   pda_small       PDA: one random 4 KiB record per op inside the
//                   client's own 8 MiB partition, 3 reads : 1 write, over
//                   a default cluster::Cluster (router -> 4 data servers).
//   is_interleaved  IS: alternating write_strided / read_strided of the
//                   client's view (block 1, stride 4, 256 records = 1 MiB)
//                   over the same cluster and file.
//   ps_checkpoint   PS checkpoint/restart: each client writes its 8 MiB
//                   partition in 24 KiB track ops, 2 futures in flight,
//                   then reads it back, through one server::IoServer over
//                   4 FileDisks (no router).
//
// Every read is checked against the benchmark's own model of the file,
// and the whole file is read back and compared after the timed phase.
// Why each workload exists, and which end-to-end metric each per-layer
// metric should move, is recorded in BENCHMARK.json.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  --workdir DIR
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics;
// --trace 1 runs half the time untraced and half traced and reports the
// per-layer metrics of the traced half.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/file_system.hpp"
#include "device/file_disk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "seams.hpp"
#include "server/client.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using pio::obs::MetricsRegistry;

constexpr std::size_t kClients = 4;
constexpr std::uint32_t kRecordBytes = 4096;
constexpr std::size_t kWords = kRecordBytes / sizeof(std::uint64_t);
constexpr std::uint64_t kPartitionRecords = (8ull << 20) / kRecordBytes;
constexpr std::uint64_t kFileRecords = kClients * kPartitionRecords;
constexpr std::uint64_t kViewRecords = 256;          // is_interleaved op
constexpr std::uint64_t kTrackRecords = 6;           // ps_checkpoint op
constexpr std::size_t kPsWindow = 2;                 // futures per client
constexpr std::uint64_t kFillChunk = 256;            // pre-populate / verify
constexpr int kRounds = 6;                           // stacks per run
constexpr std::size_t kSlices = 20;                  // per timed phase
constexpr double kWarmupFraction = 0.1;              // of a round
constexpr double kStealLimit = 0.02;                 // of a round's CPU time
constexpr std::uint32_t kUnknown = 0xffffffffu;      // a write that failed
constexpr const char* kFileName = "bench";

// Registry histograms the library records into.  Registered first, with
// 0.1 us buckets, so the library's find-or-create returns these instead
// of its own 5 ms (server) / 0.5 ms (iosched) buckets, whose p50 at these
// latencies would be an artifact of bucket width.
constexpr const char* kFineHistograms[] = {
    "server.read_records.op_us",  "server.write_records.op_us",
    "server.read_strided.op_us",  "server.write_strided.op_us",
    "iosched.wait_us",            "iosched.service_us",
};

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::span<std::byte> bytes_of(std::vector<std::uint64_t>& words) {
  return std::as_writable_bytes(std::span(words));
}
std::span<const std::byte> cbytes_of(const std::vector<std::uint64_t>& words) {
  return std::as_bytes(std::span(words));
}

/// The benchmark's model of the file: the version last written to each
/// record, and the bytes any version must hold.  Each record has exactly
/// one writer thread (clients own disjoint records), so the table needs
/// no locking; the final check runs after every client thread joined.
class Model {
 public:
  explicit Model(std::uint64_t seed)
      : salt_(mix(seed ^ 0x5eedULL)), versions_(kFileRecords, 1) {}

  std::uint32_t& version(std::uint64_t r) { return versions_[r]; }
  void reset() { std::fill(versions_.begin(), versions_.end(), 1u); }

  void fill(std::uint64_t* w, std::uint64_t r, std::uint32_t v) const {
    const std::uint64_t k = key(r, v);
    for (std::size_t i = 0; i < kWords; ++i) w[i] = k + i * kStep;
  }
  /// True when `w` holds what the model says record `r` holds.
  bool check(const std::uint64_t* w, std::uint64_t r) const {
    const std::uint32_t v = versions_[r];
    if (v == kUnknown) return true;  // already counted as a failed write
    const std::uint64_t k = key(r, v);
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < kWords; ++i) diff |= w[i] ^ (k + i * kStep);
    return diff == 0;
  }

 private:
  static constexpr std::uint64_t kStep = 0x9e3779b97f4a7c15ULL;
  std::uint64_t key(std::uint64_t r, std::uint32_t v) const {
    return mix(salt_ ^ (r << 24) ^ v);
  }

  std::uint64_t salt_;
  std::vector<std::uint32_t> versions_;
};

/// Write version 1 of every record, each partition through its owner's
/// session (`clients` and `tokens` are indexed by client).
template <typename Client, typename Token>
pio::Status populate(const Model& model, std::vector<Client>& clients,
                     const std::vector<Token>& tokens) {
  std::vector<std::uint64_t> buf(kFillChunk * kWords);
  for (std::uint64_t first = 0; first < kFileRecords; first += kFillChunk) {
    for (std::uint64_t i = 0; i < kFillChunk; ++i) {
      model.fill(&buf[i * kWords], first + i, 1);
    }
    const std::size_t c = first / kPartitionRecords;
    PIO_TRY(clients[c].write_records(tokens[c], first, kFillChunk,
                                     cbytes_of(buf)));
  }
  return pio::ok_status();
}

/// Read the whole file back; returns the records that differ from the
/// model (an unreadable chunk counts all its records).
template <typename Client, typename Token>
std::uint64_t image_mismatches(const Model& model, Client& client,
                               Token token) {
  std::vector<std::uint64_t> buf(kFillChunk * kWords);
  std::uint64_t bad = 0;
  for (std::uint64_t first = 0; first < kFileRecords; first += kFillChunk) {
    if (!client.read_records(token, first, kFillChunk, bytes_of(buf)).ok()) {
      bad += kFillChunk;
      continue;
    }
    for (std::uint64_t i = 0; i < kFillChunk; ++i) {
      if (!model.check(&buf[i * kWords], first + i)) ++bad;
    }
  }
  return bad;
}

/// Per-slice latency histograms (on the heap: each is ~30 KB).
using SliceHists = std::vector<LatencyHist>;

/// What one client thread saw in one phase.  The phase is cut into
/// kSlices equal slices, and payload and latencies are kept per slice of
/// completion, so throughput and p50 can be reported as medians over
/// slices, which interference during a minority of the run does not move.
struct ClientResult {
  SliceHists read = SliceHists(kSlices);
  SliceHists write = SliceHists(kSlices);
  std::array<std::uint64_t, kSlices> slice_bytes{};
  std::uint64_t read_ns = 0, write_ns = 0;  ///< latency sums, for means
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errored, refused, or misread
  std::uint64_t bytes = 0;   ///< payload of ops that completed correctly
  Clock::time_point start{};
  Clock::duration slice{1};

  void read_ok(Clock::time_point t0, Clock::time_point t1,
               std::uint64_t payload) {
    read[tally(t1, payload)].add(ns_between(t0, t1));
    read_ns += ns_between(t0, t1);
  }
  void write_ok(Clock::time_point t0, Clock::time_point t1,
                std::uint64_t payload) {
    write[tally(t1, payload)].add(ns_between(t0, t1));
    write_ns += ns_between(t0, t1);
  }

 private:
  std::size_t tally(Clock::time_point t1, std::uint64_t payload) {
    const auto i = std::min(static_cast<std::size_t>((t1 - start) / slice),
                            kSlices - 1);
    bytes += payload;
    slice_bytes[i] += payload;
    return i;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (v[(n - 1) / 2] + v[n / 2]) / 2;
}

LatencyHist merged(const SliceHists& slices) {
  LatencyHist all;
  for (const LatencyHist& h : slices) all.merge(h);
  return all;
}

/// Median over slices (those with samples) of each slice's p50, in us.
double median_p50_us(const SliceHists& slices) {
  std::vector<double> p50s;
  for (const LatencyHist& h : slices) {
    if (h.count() > 0) p50s.push_back(h.quantile_us(0.5));
  }
  return median(std::move(p50s));
}

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed), model_(seed) {}
  virtual ~Workload() = default;

  /// Build the stack, create the file, connect every client and write
  /// every record once (version 1).
  virtual pio::Status setup() = 0;
  /// Destroy the stack so setup() can run again.
  virtual void teardown() = 0;
  /// Closed loop for client `c` until `deadline`.
  virtual void run_client(std::size_t c, Clock::time_point deadline,
                          ClientResult& out) = 0;
  /// Read the whole file back; returns records that differ from the model.
  virtual std::uint64_t verify_image() = 0;

 protected:
  pio::Rng client_rng(std::size_t c) const {
    return pio::Rng(mix(seed_ * 31 + c + 1));
  }

  std::uint64_t seed_;
  Model model_;
};

// ------------------------------------------------------------ cluster

SeamStats g_channel_stats;
SeamStats g_device_stats;

class ClusterWorkload : public Workload {
 public:
  using Workload::Workload;
  ~ClusterWorkload() override { teardown(); }

  pio::Status setup() override {
    model_.reset();
    auto cluster = pio::cluster::Cluster::create(pio::cluster::ClusterOptions{});
    if (!cluster.ok()) return pio::Error(cluster.error());
    cluster_ = std::move(cluster).take();
    pio::cluster::ClusterCreateOptions create;
    create.name = kFileName;
    create.record_bytes = kRecordBytes;
    create.capacity_records = kFileRecords;
    if (auto meta = cluster_->metadata().create(create); !meta.ok()) {
      return pio::Error(meta.error());
    }
    transport_ =
        std::make_unique<TimedTransport>(cluster_->transport(), g_channel_stats);
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = pio::cluster::ClusterClient::connect(cluster_->metadata(),
                                                         *transport_);
      if (!client.ok()) return pio::Error(client.error());
      clients_.push_back(std::move(client).take());
      auto token = clients_.back().open(kFileName);
      if (!token.ok()) return pio::Error(token.error());
      tokens_.push_back(*token);
    }
    return populate(model_, clients_, tokens_);
  }

  void teardown() override {
    clients_.clear();
    tokens_.clear();
    transport_.reset();
    if (cluster_) (void)cluster_->shutdown();
    cluster_.reset();
  }

  std::uint64_t verify_image() override {
    return image_mismatches(model_, clients_[0], tokens_[0]);
  }

 protected:
  std::unique_ptr<pio::cluster::Cluster> cluster_;
  std::unique_ptr<TimedTransport> transport_;
  std::vector<pio::cluster::ClusterClient> clients_;
  std::vector<pio::cluster::ClusterToken> tokens_;
};

class PdaSmall final : public ClusterWorkload {
 public:
  using ClusterWorkload::ClusterWorkload;

  void run_client(std::size_t c, Clock::time_point deadline,
                  ClientResult& out) override {
    pio::Rng rng = client_rng(c);
    auto& client = clients_[c];
    const auto token = tokens_[c];
    const std::uint64_t base = c * kPartitionRecords;
    std::vector<std::uint64_t> buf(kWords);
    while (Clock::now() < deadline) {
      const std::uint64_t r = base + rng.uniform_u64(kPartitionRecords);
      const bool is_read = rng.uniform_u64(4) != 0;
      ++out.attempted;
      if (is_read) {
        const auto t0 = Clock::now();
        const auto st = client.read_records(token, r, 1, bytes_of(buf));
        const auto t1 = Clock::now();
        if (!st.ok() || !model_.check(buf.data(), r)) {
          ++out.failed;
          continue;
        }
        out.read_ok(t0, t1, kRecordBytes);
      } else {
        std::uint32_t& version = model_.version(r);
        const std::uint32_t next = version + 1;
        model_.fill(buf.data(), r, next);
        const auto t0 = Clock::now();
        const auto st = client.write_records(token, r, 1, cbytes_of(buf));
        const auto t1 = Clock::now();
        if (!st.ok()) {
          version = kUnknown;
          ++out.failed;
          continue;
        }
        version = next;
        out.write_ok(t0, t1, kRecordBytes);
      }
    }
  }
};

class IsInterleaved final : public ClusterWorkload {
 public:
  using ClusterWorkload::ClusterWorkload;

  void run_client(std::size_t c, Clock::time_point deadline,
                  ClientResult& out) override {
    constexpr std::uint64_t kWindowRecords = kViewRecords * kClients;
    constexpr std::uint64_t kWindows = kFileRecords / kWindowRecords;
    pio::Rng rng = client_rng(c);
    auto& client = clients_[c];
    const auto token = tokens_[c];
    std::vector<std::uint64_t> buf(kViewRecords * kWords);
    constexpr std::uint64_t kPayload = kViewRecords * kRecordBytes;
    while (Clock::now() < deadline) {
      pio::StridedSpec spec;
      spec.start_record = rng.uniform_u64(kWindows) * kWindowRecords + c;
      spec.block_records = 1;
      spec.stride_records = kClients;
      spec.count = kViewRecords;

      for (std::uint64_t i = 0; i < kViewRecords; ++i) {
        const std::uint64_t r = spec.record_at(i);
        model_.fill(&buf[i * kWords], r, model_.version(r) + 1);
      }
      ++out.attempted;
      auto t0 = Clock::now();
      auto st = client.write_strided(token, spec, cbytes_of(buf));
      auto t1 = Clock::now();
      for (std::uint64_t i = 0; i < kViewRecords; ++i) {
        std::uint32_t& version = model_.version(spec.record_at(i));
        version = st.ok() ? version + 1 : kUnknown;
      }
      if (!st.ok()) {
        ++out.failed;
        continue;
      }
      out.write_ok(t0, t1, kPayload);
      if (Clock::now() >= deadline) break;

      ++out.attempted;
      t0 = Clock::now();
      st = client.read_strided(token, spec, bytes_of(buf));
      t1 = Clock::now();
      bool good = st.ok();
      for (std::uint64_t i = 0; good && i < kViewRecords; ++i) {
        good = model_.check(&buf[i * kWords], spec.record_at(i));
      }
      if (!good) {
        ++out.failed;
        continue;
      }
      out.read_ok(t0, t1, kPayload);
    }
  }
};

// ------------------------------------------------------ ps_checkpoint

class PsCheckpoint final : public Workload {
 public:
  PsCheckpoint(std::uint64_t seed, std::filesystem::path workdir)
      : Workload(seed), workdir_(std::move(workdir)) {}
  ~PsCheckpoint() override { teardown(); }

  pio::Status setup() override {
    model_.reset();
    std::error_code ec;
    std::filesystem::remove_all(workdir_, ec);
    std::filesystem::create_directories(workdir_, ec);
    if (ec) {
      return pio::make_error(pio::Errc::internal,
                             workdir_.string() + ": " + ec.message());
    }
    // One partition per device plus room for the superblock slots.
    constexpr std::uint64_t kDeviceBytes = 16ull << 20;
    for (std::size_t d = 0; d < kClients; ++d) {
      auto disk = pio::FileDisk::open(
          (workdir_ / ("disk" + std::to_string(d) + ".img")).string(),
          kDeviceBytes);
      if (!disk.ok()) return pio::Error(disk.error());
      devices_.add(std::make_unique<TimedDevice>(std::move(disk).take(),
                                                 g_device_stats));
    }
    auto fs = pio::FileSystem::format(devices_);
    if (!fs.ok()) return pio::Error(fs.error());
    fs_ = std::move(fs).take();
    pio::CreateOptions create;
    create.name = kFileName;
    create.organization = pio::Organization::partitioned;
    create.record_bytes = kRecordBytes;
    create.partitions = kClients;
    create.capacity_records = kFileRecords;
    if (auto file = fs_->create(create); !file.ok()) {
      return pio::Error(file.error());
    }
    server_ = std::make_unique<pio::server::IoServer>(*fs_, devices_);
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = pio::server::Client::connect(*server_);
      if (!client.ok()) return pio::Error(client.error());
      clients_.push_back(std::move(client).take());
      auto token = clients_.back().open(kFileName);
      if (!token.ok()) return pio::Error(token.error());
      tokens_.push_back(*token);
    }
    return populate(model_, clients_, tokens_);
  }

  void teardown() override {
    clients_.clear();
    tokens_.clear();
    server_.reset();
    fs_.reset();
    devices_ = pio::DeviceArray{};
    std::error_code ec;
    std::filesystem::remove_all(workdir_, ec);
  }

  void run_client(std::size_t c, Clock::time_point deadline,
                  ClientResult& out) override {
    auto& client = clients_[c];
    const auto token = tokens_[c];
    const std::uint64_t base = c * kPartitionRecords;
    struct Slot {
      std::vector<std::uint64_t> buf =
          std::vector<std::uint64_t>(kTrackRecords * kWords);
      pio::server::Future future;
      std::uint64_t first = 0;
      std::uint64_t count = 0;
      bool is_read = false;
      Clock::time_point t0{};
    };
    std::vector<Slot> slots(kPsWindow);
    std::size_t head = 0;      // oldest in-flight slot
    std::size_t inflight = 0;

    auto complete_oldest = [&] {
      Slot& s = slots[head];
      head = (head + 1) % kPsWindow;
      --inflight;
      const pio::Status st = s.future.wait();
      const auto t1 = Clock::now();
      const std::uint64_t payload = s.count * kRecordBytes;
      bool good = st.ok();
      for (std::uint64_t i = 0; i < s.count; ++i) {
        std::uint32_t& version = model_.version(s.first + i);
        if (s.is_read) {
          good = good && model_.check(&s.buf[i * kWords], s.first + i);
        } else {
          version = st.ok() ? version + 1 : kUnknown;
        }
      }
      if (!good) {
        ++out.failed;
      } else if (s.is_read) {
        out.read_ok(s.t0, t1, payload);
      } else {
        out.write_ok(s.t0, t1, payload);
      }
    };

    bool is_read = false;
    while (Clock::now() < deadline) {
      // One half-pass: write (or read back) the whole partition in track
      // ops, then drain so the next half sees completed data.
      for (std::uint64_t off = 0;
           off < kPartitionRecords && Clock::now() < deadline;
           off += kTrackRecords) {
        if (inflight == kPsWindow) complete_oldest();
        Slot& s = slots[(head + inflight) % kPsWindow];
        s.first = base + off;
        s.count = std::min(kTrackRecords, kPartitionRecords - off);
        s.is_read = is_read;
        const auto span = bytes_of(s.buf).first(s.count * kRecordBytes);
        if (!is_read) {
          for (std::uint64_t i = 0; i < s.count; ++i) {
            model_.fill(&s.buf[i * kWords], s.first + i,
                        model_.version(s.first + i) + 1);
          }
        }
        ++out.attempted;
        s.t0 = Clock::now();
        auto fut = is_read ? client.read_async(token, s.first, s.count, span)
                           : client.write_async(token, s.first, s.count, span);
        if (!fut.ok()) {  // refused (overloaded) or failed at admission
          ++out.failed;
          if (!is_read) {
            for (std::uint64_t i = 0; i < s.count; ++i) {
              model_.version(s.first + i) = kUnknown;
            }
          }
          continue;
        }
        s.future = std::move(fut).take();
        ++inflight;
      }
      while (inflight > 0) complete_oldest();
      is_read = !is_read;
    }
  }

  std::uint64_t verify_image() override {
    return image_mismatches(model_, clients_[0], tokens_[0]);
  }

 private:
  std::filesystem::path workdir_;
  // Destroyed bottom-up: sessions, then the server, the file system and
  // last the devices they run on.
  pio::DeviceArray devices_;
  std::unique_ptr<pio::FileSystem> fs_;
  std::unique_ptr<pio::server::IoServer> server_;
  std::vector<pio::server::Client> clients_;
  std::vector<pio::server::FileToken> tokens_;
};

// -------------------------------------------------------------- phases

struct Phase {
  std::vector<ClientResult> clients = std::vector<ClientResult>(kClients);
  ClientResult total;
  double slice_seconds = 0.0;
  long threads = 0;  ///< sampled halfway through

  /// Payload rate of each slice, in MB/s.
  std::vector<double> slice_mbps() const {
    std::vector<double> rates;
    for (std::uint64_t b : total.slice_bytes) {
      rates.push_back(static_cast<double>(b) / slice_seconds / 1e6);
    }
    return rates;
  }
  /// Median slice rate, in MB/s.
  double throughput_mbps() const { return median(slice_mbps()); }
};

/// Run every client's closed loop for `seconds` from a common start.
Phase run_phase(Workload& w, double seconds) {
  Phase p;
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  p.slice_seconds = seconds / kSlices;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  Clock::time_point deadline{};
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      w.run_client(c, deadline, p.clients[c]);
    });
  }
  const Clock::time_point start = Clock::now();
  deadline = start + length;
  for (ClientResult& r : p.clients) {
    r.start = start;
    r.slice = length / kSlices;
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_until(start + length / 2);
  p.threads = thread_count();
  for (auto& t : threads) t.join();

  for (const ClientResult& r : p.clients) {
    for (std::size_t i = 0; i < kSlices; ++i) {
      p.total.read[i].merge(r.read[i]);
      p.total.write[i].merge(r.write[i]);
      p.total.slice_bytes[i] += r.slice_bytes[i];
    }
    p.total.read_ns += r.read_ns;
    p.total.write_ns += r.write_ns;
    p.total.attempted += r.attempted;
    p.total.failed += r.failed;
    p.total.bytes += r.bytes;
  }
  return p;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/inf: print null, which the checks then reject.
    char value[32] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double counter(const char* name) {
  return static_cast<double>(MetricsRegistry::global().counter(name).value());
}

pio::obs::LatencyHistogram& fine_hist(const char* name) {
  return MetricsRegistry::global().histogram(name, 0.0, 1e4, 100'000);
}

/// p50 of whichever of two op histograms saw more samples (the cluster
/// router turns a strided view into record sub-requests or strided ones
/// depending on the layout; ps_checkpoint only issues record ops).
double server_p50(const char* records, const char* strided) {
  auto& a = fine_hist(records);
  auto& b = fine_hist(strided);
  return (a.count() >= b.count() ? a : b).quantile(0.5);
}

/// Mean server op_us over the data-plane op types, weighted by count.
double server_mean_op_us() {
  double sum = 0.0, n = 0.0;
  for (int i = 0; i < 4; ++i) {
    auto& h = fine_hist(kFineHistograms[i]);
    sum += h.mean() * static_cast<double>(h.count());
    n += static_cast<double>(h.count());
  }
  return ratio(sum, n);
}

void reset_counters() {
  MetricsRegistry::global().reset();
  g_channel_stats.reset();
  g_device_stats.reset();
}

std::vector<Metric> layer_metrics(const Phase& traced,
                                  const ProcSample& before,
                                  const ProcSample& after,
                                  double untraced_mbps) {
  const ClientResult& t = traced.total;
  const LatencyHist reads = merged(t.read);
  const LatencyHist writes = merged(t.write);
  const double ops = static_cast<double>(t.attempted);
  const double client_mean_us =
      ratio(static_cast<double>(t.read_ns + t.write_ns) / 1e3,
            static_cast<double>(reads.count() + writes.count()));
  const double staged = counter("cluster.staged_bytes");
  const double direct = counter("cluster.direct_bytes");
  const double dev_calls = static_cast<double>(g_device_stats.calls.load());
  return {
      {"client.read_p99_us", reads.quantile_us(0.99), "us"},
      {"client.write_p99_us", writes.quantile_us(0.99), "us"},
      {"client.ops", ops, "count"},
      {"cluster.subrequests_per_op", ratio(counter("cluster.subrequests"), ops),
       "count/op"},
      {"cluster.staged_bytes_frac", ratio(staged, staged + direct), "ratio"},
      {"cluster.submit_us", g_channel_stats.mean_us(), "us"},
      {"cluster.router_us",
       counter("cluster.requests") > 0 ? client_mean_us - server_mean_op_us()
                                       : 0.0,
       "us"},
      {"cluster.overload_refusals_per_op",
       ratio(static_cast<double>(g_channel_stats.refusals.load()), ops),
       "count/op"},
      {"cluster.retries_per_op", ratio(counter("cluster.retries"), ops),
       "count/op"},
      {"server.read_op_us",
       server_p50("server.read_records.op_us", "server.read_strided.op_us"),
       "us"},
      {"server.write_op_us",
       server_p50("server.write_records.op_us", "server.write_strided.op_us"),
       "us"},
      {"server.rejected_per_op", ratio(counter("server.rejected"), ops),
       "count/op"},
      {"server.stolen_frac",
       ratio(counter("server.stolen"), counter("server.accepted")), "ratio"},
      {"server.dedup_hits", counter("server.dedup_hits"), "count"},
      {"iosched.wait_us", fine_hist("iosched.wait_us").quantile(0.5), "us"},
      {"iosched.service_us", fine_hist("iosched.service_us").quantile(0.5),
       "us"},
      {"iosched.requests_per_op", ratio(counter("iosched.completed"), ops),
       "count/op"},
      {"iosched.coalesced_frac",
       ratio(counter("iosched.coalesced"), counter("iosched.enqueued")),
       "ratio"},
      {"device.op_us", g_device_stats.mean_us(), "us"},
      {"device.ops_per_op", ratio(dev_calls, ops), "count/op"},
      {"device.bytes_per_user_byte",
       ratio(static_cast<double>(g_device_stats.bytes.load()),
             static_cast<double>(t.bytes)),
       "B/B"},
      {"proc.cpu_us_per_op", ratio(after.cpu_us - before.cpu_us, ops),
       "us/op"},
      {"proc.ctx_switches_per_op",
       ratio(static_cast<double>(after.ctx_switches - before.ctx_switches),
             ops),
       "count/op"},
      {"proc.threads", static_cast<double>(traced.threads), "count"},
      {"proc.allocs_per_op",
       ratio(static_cast<double>(after.allocs - before.allocs), ops),
       "count/op"},
      {"trace_overhead_frac",
       untraced_mbps > 0 ? 1.0 - traced.throughput_mbps() / untraced_mbps : 0.0,
       "ratio"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pda_small|is_interleaved|"
               "ps_checkpoint --seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::string workdir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--workdir") {
      workdir = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0') return usage();
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workdir.empty() || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  for (const char* name : kFineHistograms) fine_hist(name);

  std::unique_ptr<Workload> w;
  if (workload == "pda_small") {
    w = std::make_unique<PdaSmall>(seed);
  } else if (workload == "is_interleaved") {
    w = std::make_unique<IsInterleaved>(seed);
  } else if (workload == "ps_checkpoint") {
    w = std::make_unique<PsCheckpoint>(
        seed, std::filesystem::path(workdir) / ("ps-" + std::to_string(seed)));
  } else {
    return usage();
  }

  // A run is kRounds rounds, each on a freshly built stack: set up, warm
  // up, reset the registry, measure, read the whole file back, tear down.
  // The end-to-end figures are medians over rounds, so neither one noisy
  // set-up nor one stack that landed in a slow state decides them.  The
  // traced run measures one stack: half untraced, then half traced.
  struct Round {
    double setup_s, mbps, read_p50, write_p50, steal;
  };
  const int rounds = trace == 0 ? kRounds : 1;
  const double round_s = seconds / rounds;
  std::vector<Round> done;
  std::uint64_t attempted = 0, failed = 0, image_bad = 0, dedup_hits = 0;
  std::uint64_t reads = 0, writes = 0;
  std::vector<Metric> metrics;
  const CpuTicks run_ticks = CpuTicks::now();
  for (int k = 0; k < rounds; ++k) {
    const CpuTicks ticks = CpuTicks::now();
    const auto t0 = Clock::now();
    if (auto st = w->setup(); !st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.error().to_string().c_str());
      return 1;
    }
    Round round{};
    round.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
    {
      // Untimed warm-up: thread stacks, allocator arenas, the page cache
      // and the servers' item pools reach steady state first.
      const Phase warm = run_phase(*w, round_s * kWarmupFraction);
      attempted += warm.total.attempted;
      failed += warm.total.failed;
    }
    reset_counters();
    if (trace == 0) {
      const Phase p = run_phase(*w, round_s);
      attempted += p.total.attempted;
      failed += p.total.failed;
      round.mbps = p.throughput_mbps();
      round.read_p50 = median_p50_us(p.total.read);
      round.write_p50 = median_p50_us(p.total.write);
      reads += merged(p.total.read).count();
      writes += merged(p.total.write).count();
    } else {
      const Phase untraced = run_phase(*w, round_s / 2);
      reset_counters();
      // The library fills its latency histograms only while its tracer is
      // on; its spans land in the tracer's bounded in-memory ring.
      pio::obs::Tracer::global().clear();
      pio::obs::Tracer::global().set_enabled(true);
      g_tracing.store(true);
      const ProcSample before = ProcSample::now();
      const Phase traced = run_phase(*w, round_s / 2);
      const ProcSample after = ProcSample::now();
      g_tracing.store(false);
      pio::obs::Tracer::global().set_enabled(false);
      attempted += untraced.total.attempted + traced.total.attempted;
      failed += untraced.total.failed + traced.total.failed;
      metrics = layer_metrics(traced, before, after,
                              untraced.throughput_mbps());
    }
    round.steal = CpuTicks::now().steal_since(ticks);
    done.push_back(round);
    dedup_hits += static_cast<std::uint64_t>(counter("server.dedup_hits"));
    image_bad += w->verify_image();
    w->teardown();
  }

  if (trace == 0) {
    // On a shared virtual machine, a round during which the hypervisor
    // stole CPU time measures the host's contention: every vCPU wakeup
    // waits, and this stack wakes threads on every request (10% steal cost
    // ps_checkpoint 30% of its throughput).  Such rounds are left out
    // while at least half the rounds are clean; otherwise all count.
    std::vector<Round> kept;
    for (const Round& r : done) {
      if (r.steal <= kStealLimit) kept.push_back(r);
    }
    if (kept.size() * 2 < done.size()) kept = done;
    auto med = [&](double Round::*field) {
      std::vector<double> v;
      for (const Round& r : kept) v.push_back(r.*field);
      return median(std::move(v));
    };
    std::printf("# samples: read=%llu write=%llu\n# rounds (MB/s, steal):",
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes));
    for (const Round& r : done) std::printf(" %.0f/%.3f", r.mbps, r.steal);
    std::printf("; %zu of %zu kept\n", kept.size(), done.size());
    metrics = {
        {"throughput_MBps", med(&Round::mbps), "MB/s"},
        {"read_p50_us", med(&Round::read_p50), "us"},
        {"write_p50_us", med(&Round::write_p50), "us"},
        {"setup_s", med(&Round::setup_s), "s"},
        {"peak_rss_MB", peak_rss_mb(), "MB"},
        {"ok_ratio", 0.0, "ratio"},  // filled in below
    };
  }
  std::printf("# steal: %.4f\n", CpuTicks::now().steal_since(run_ticks));
  std::printf("# verified: ops_failed=%llu image_records_bad=%llu "
              "dedup_hits=%llu\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(image_bad),
              static_cast<unsigned long long>(dedup_hits));
  failed += image_bad;
  for (Metric& m : metrics) {
    if (m.name == "ok_ratio") {
      m.value = 1.0 - ratio(static_cast<double>(std::min(failed, attempted)),
                            static_cast<double>(attempted));
    }
  }
  print_result(failed == 0 && attempted > 0,
               std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
