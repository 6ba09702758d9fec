#include "cluster/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/sharded_cache.h"
#include "serve/concurrent_engine.h"
#include "tenant/tenant.h"
#include "util/check.h"

namespace cortex::cluster {

using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ResponseType;

namespace {

std::string Errno(std::string_view what) {
  return std::string(what) + ": " + std::strerror(errno);
}

Response MakeResponse(ResponseType type) {
  Response r;
  r.type = type;
  return r;
}

Response MakeError(std::string message) {
  Response r = MakeResponse(ResponseType::kError);
  r.message = std::move(message);
  return r;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void SendOneFrame(int fd, const Response& response) {
  std::string out;
  serve::AppendFrame(EncodePayload(response), out);
  SendAll(fd, out);
}

// A response that settles the request: anything but a transport failure
// (nullopt) or BUSY, both of which mean "try the next replica".
bool Settles(const std::optional<Response>& response) {
  return response.has_value() && response->type != ResponseType::kBusy;
}

}  // namespace

ClusterRouter::ClusterRouter(RouterOptions options)
    : options_(std::move(options)), ring_(options_.ring) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    registry_owned_ = std::make_unique<telemetry::MetricRegistry>();
    registry_ = registry_owned_.get();
  }
  connections_accepted_ =
      registry_->GetCounter("cortex_router_connections_accepted");
  connections_rejected_ =
      registry_->GetCounter("cortex_router_connections_rejected");
  requests_served_ = registry_->GetCounter("cortex_router_requests_served");
  requests_busy_ = registry_->GetCounter("cortex_router_requests_busy");
  protocol_errors_ = registry_->GetCounter("cortex_router_protocol_errors");
  lookups_ = registry_->GetCounter("cortex_router_lookups");
  inserts_ = registry_->GetCounter("cortex_router_inserts");
  failovers_ = registry_->GetCounter("cortex_router_failovers");
  double_reads_ = registry_->GetCounter("cortex_router_double_reads");
  double_read_hits_ = registry_->GetCounter("cortex_router_double_read_hits");
  dual_writes_ = registry_->GetCounter("cortex_router_dual_writes");
  replica_writes_ = registry_->GetCounter("cortex_router_replica_writes");
  node_errors_ = registry_->GetCounter("cortex_router_node_errors");
  migrations_ = registry_->GetCounter("cortex_router_migrations");
  migration_entries_ =
      registry_->GetCounter("cortex_router_migration_entries");
  migration_bytes_ = registry_->GetCounter("cortex_router_migration_bytes");
  migration_seconds_ = registry_->GetGauge("cortex_router_migration_seconds");
  ring_version_gauge_ = registry_->GetGauge("cortex_router_ring_version");
  nodes_gauge_ = registry_->GetGauge("cortex_router_nodes");
  queue_depth_ = registry_->GetGauge("cortex_router_queue_depth");
  request_seconds_ =
      registry_->GetHistogram("cortex_router_request_seconds");
}

ClusterRouter::~ClusterRouter() { Stop(); }

bool ClusterRouter::AddNode(const std::string& name,
                            const std::string& endpoint, std::string* error) {
  const auto ep = ParseEndpoint(endpoint, error);
  if (!ep) return false;
  WriterLock lock(state_mu_);
  if (ring_.HasNode(name)) {
    if (error) *error = "node '" + name + "' already on the ring";
    return false;
  }
  if (next_ring_) {
    if (error) *error = "migration in progress";
    return false;
  }
  ring_.AddNode(name, *ep);
  if (pools_.find(name) == pools_.end()) {
    NodePoolOptions nopts = options_.node;
    nopts.seed = pool_seed_++;
    pools_[name] =
        std::make_unique<NodePool>(name, *ep, nopts, registry_);
  }
  ring_version_gauge_->Set(static_cast<double>(ring_.version()));
  nodes_gauge_->Set(static_cast<double>(ring_.num_nodes()));
  return true;
}

std::uint64_t ClusterRouter::ring_version() const {
  ReaderLock lock(state_mu_);
  return ring_.version();
}

bool ClusterRouter::migrating() const {
  ReaderLock lock(state_mu_);
  return next_ring_.has_value();
}

std::size_t ClusterRouter::num_nodes() const {
  ReaderLock lock(state_mu_);
  return ring_.num_nodes();
}

std::string ClusterRouter::PlacementKey(std::string_view text) const {
  // Tenant pinning: "tenant:<id>|<query>" places every query of a tenant
  // on one owner set, whatever the query says.  A bare "tenant:<id>" is
  // already a placement key (the form RouteLookup/RouteInsert derive from
  // TLOOKUP/TINSERT) and passes through verbatim, keeping PlacementKey
  // idempotent.
  if (text.rfind("tenant:", 0) == 0 && text.size() > 7) {
    const auto bar = text.find('|');
    if (bar == std::string_view::npos) return std::string(text);
    if (bar > 7) return std::string(text.substr(0, bar));
  }
  if (options_.embedder != nullptr) {
    return PlacementAnchor(*options_.embedder, tokenizer_, text);
  }
  return std::string(text);
}

std::vector<std::string> ClusterRouter::OwnersFor(
    std::string_view text) const {
  const std::string key = PlacementKey(text);
  ReaderLock lock(state_mu_);
  return ring_.OwnersFor(key);
}

std::vector<NodePool*> ClusterRouter::PoolsFor(
    const HashRing& ring, std::string_view placement_key) const {
  std::vector<NodePool*> pools;
  for (const std::string& name : ring.OwnersFor(placement_key)) {
    const auto it = pools_.find(name);
    if (it != pools_.end()) pools.push_back(it->second.get());
  }
  return pools;
}

bool ClusterRouter::Start(std::string* error) {
  if (running_.load()) return true;

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      if (error) *error = "unix socket path too long";
      return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = Errno("socket");
      return false;
    }
    ::unlink(options_.unix_path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      if (error) *error = Errno("bind(" + options_.unix_path + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    bound_unix_path_ = options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = Errno("socket");
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      if (error) *error = "bad host " + options_.host;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      if (error) *error = Errno("bind(" + options_.host + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, 128) < 0) {
    if (error) *error = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stopping_.store(false);
  draining_.store(false);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void ClusterRouter::Drain(double timeout_sec) {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  const double deadline = telemetry::WallSeconds() + timeout_sec;
  for (;;) {
    std::size_t queued = 0;
    {
      MutexLock lock(queue_mu_);
      queued = conn_queue_.size();
    }
    if (queued == 0 &&
        active_connections_.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (telemetry::WallSeconds() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Stop();
}

void ClusterRouter::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::deque<int> leftover;
  {
    MutexLock lock(queue_mu_);
    leftover.swap(conn_queue_);
  }
  for (int fd : leftover) ::close(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!bound_unix_path_.empty()) {
    ::unlink(bound_unix_path_.c_str());
    bound_unix_path_.clear();
  }
}

void ClusterRouter::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_->Inc();
    bool rejected = false;
    {
      MutexLock lock(queue_mu_);
      if (conn_queue_.size() >= options_.max_pending_connections) {
        rejected = true;
      } else {
        conn_queue_.push_back(fd);
        queue_depth_->Set(static_cast<double>(conn_queue_.size()));
      }
    }
    if (rejected) {
      connections_rejected_->Inc();
      SendOneFrame(fd, MakeResponse(ResponseType::kBusy));
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void ClusterRouter::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<RankedMutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !conn_queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = conn_queue_.front();
      conn_queue_.pop_front();
      queue_depth_->Set(static_cast<double>(conn_queue_.size()));
    }
    ServeConnection(fd);
  }
}

void ClusterRouter::ServeConnection(int fd) {
  active_connections_.fetch_add(1, std::memory_order_acq_rel);
  struct ActiveGuard {
    std::atomic<std::int64_t>* n;
    ~ActiveGuard() { n->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&active_connections_};

  serve::FrameDecoder decoder(options_.max_frame_bytes);
  struct PendingFrame {
    bool overloaded = false;
    std::string payload;
  };
  std::deque<PendingFrame> pending;
  std::string outbuf;
  char buf[16 * 1024];
  bool done = false;

  while (!done && !stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      // Same drain contract as CortexServer: outbuf is flushed at the end
      // of every iteration, so an idle tick while draining closes cleanly.
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }
    if (pfd.revents & (POLLERR | POLLNVAL)) break;

    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) {
      if (decoder.MidFrame()) protocol_errors_->Inc();
      break;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    decoder.Feed(std::string_view(buf, static_cast<std::size_t>(n)));

    outbuf.clear();
    std::string payload;
    for (;;) {
      const serve::FrameDecoder::Status st = decoder.Next(&payload);
      if (st == serve::FrameDecoder::Status::kNeedMore) break;
      if (st == serve::FrameDecoder::Status::kOversized) {
        protocol_errors_->Inc();
        serve::AppendFrame(
            EncodePayload(MakeError(
                "frame exceeds " + std::to_string(options_.max_frame_bytes) +
                " bytes")),
            outbuf);
        done = true;
        break;
      }
      if (pending.size() >= options_.max_pipeline) {
        pending.push_back({true, {}});
        continue;
      }
      pending.push_back({false, std::move(payload)});
    }

    while (!pending.empty()) {
      const PendingFrame frame = std::move(pending.front());
      pending.pop_front();
      if (frame.overloaded) {
        requests_busy_->Inc();
        requests_served_->Inc();
        serve::AppendFrame(EncodePayload(MakeResponse(ResponseType::kBusy)),
                           outbuf);
        continue;
      }
      const double t0 = telemetry::WallSeconds();
      std::string parse_error;
      Response response;
      if (const auto request =
              serve::ParseRequest(frame.payload, &parse_error)) {
        response = Execute(*request);
      } else {
        protocol_errors_->Inc();
        response = MakeError(parse_error);
      }
      requests_served_->Inc();
      request_seconds_->Observe(telemetry::WallSeconds() - t0);
      serve::AppendFrame(EncodePayload(response), outbuf);
    }

    if (!outbuf.empty() && !SendAll(fd, outbuf)) break;
  }
  ::close(fd);
}

Response ClusterRouter::Execute(const Request& request) {
  switch (request.type) {
    case RequestType::kPing:
      return MakeResponse(ResponseType::kPong);
    case RequestType::kHello: {
      if (request.version != serve::kProtocolVersion) {
        return MakeError(
            "protocol version mismatch: peer speaks v" +
            std::to_string(request.version) + ", this router speaks v" +
            std::to_string(serve::kProtocolVersion));
      }
      Response r = MakeResponse(ResponseType::kWelcome);
      r.id = serve::kProtocolVersion;
      r.message = "router";
      return r;
    }
    case RequestType::kLookup:
    case RequestType::kTenantLookup:
      return RouteLookup(request);
    case RequestType::kInsert:
    case RequestType::kTenantInsert:
      return RouteInsert(request);
    case RequestType::kMigrate:
      return DoMigrate(request);
    case RequestType::kCluster:
      return BuildCluster();
    case RequestType::kStats:
      return BuildStats();
    case RequestType::kDumpTrace:
      return MakeError("no flight recorder on the router");
    case RequestType::kSnapshot:
    case RequestType::kRestore:
      return MakeError("node-only command");
  }
  return MakeError("unhandled request type");
}

Response ClusterRouter::RouteLookup(const Request& request) {
  lookups_->Inc();
  // TLOOKUP pins the whole namespace to the tenant's owner set — same
  // placement key as the legacy "tenant:<id>|<query>" prefix convention.
  const std::string key = request.tenant.empty()
                              ? PlacementKey(request.query)
                              : tenant::PlacementKeyFor(request.tenant);
  std::vector<NodePool*> owners;
  NodePool* window_primary = nullptr;  // new-ring primary during migration
  {
    ReaderLock lock(state_mu_);
    owners = PoolsFor(ring_, key);
    if (next_ring_) {
      const std::string next_primary = next_ring_->PrimaryFor(key);
      const bool already =
          std::any_of(owners.begin(), owners.end(), [&](const NodePool* p) {
            return p->name() == next_primary;
          });
      if (!already) {
        const auto it = pools_.find(next_primary);
        if (it != pools_.end()) window_primary = it->second.get();
      }
    }
  }
  if (owners.empty()) return MakeError("empty ring");

  std::optional<Response> response;
  std::string error;
  for (std::size_t i = 0; i < owners.size(); ++i) {
    if (i > 0) failovers_->Inc();
    response = owners[i]->Call(request, &error);
    if (Settles(response)) break;
    if (!response) node_errors_->Inc();
  }
  if (!Settles(response)) {
    if (response) return *response;  // every owner BUSY: surface it
    return MakeError("all owners unreachable: " + error);
  }

  // Handoff double-read: during the migration window the joining node may
  // already hold entries dual-written there; a MISS from the old owners is
  // not authoritative until the ring commits.
  if (response->type == ResponseType::kMiss && window_primary != nullptr) {
    double_reads_->Inc();
    const auto second = window_primary->Call(request, &error);
    if (second && second->type == ResponseType::kHit) {
      double_read_hits_->Inc();
      return *second;
    }
  }
  return *response;
}

Response ClusterRouter::RouteInsert(const Request& request) {
  inserts_->Inc();
  const std::string key = request.tenant.empty()
                              ? PlacementKey(request.key)
                              : tenant::PlacementKeyFor(request.tenant);
  std::vector<NodePool*> owners;
  std::vector<NodePool*> window_extras;  // new-ring owners not in owners
  {
    ReaderLock lock(state_mu_);
    owners = PoolsFor(ring_, key);
    if (next_ring_) {
      for (NodePool* p : PoolsFor(*next_ring_, key)) {
        const bool already = std::any_of(
            owners.begin(), owners.end(),
            [&](const NodePool* q) { return q->name() == p->name(); });
        if (!already) window_extras.push_back(p);
      }
    }
  }
  if (owners.empty()) return MakeError("empty ring");

  // The primary's verdict is the client's response; replicas and
  // dual-write targets absorb the same insert so failover/migration never
  // lose an entry, but their failures only count, they don't surface.
  std::optional<Response> primary_response;
  std::string error;
  for (std::size_t i = 0; i < owners.size(); ++i) {
    const auto response = owners[i]->Call(request, &error);
    if (!response) node_errors_->Inc();
    if (i > 0 && response) replica_writes_->Inc();
    if (!primary_response && Settles(response)) {
      primary_response = response;
    }
  }
  for (NodePool* p : window_extras) {
    const auto response = p->Call(request, &error);
    if (!response) {
      node_errors_->Inc();
    } else {
      dual_writes_->Inc();
    }
  }
  if (!primary_response) {
    return MakeError("no owner accepted the insert: " + error);
  }
  return *primary_response;
}

Response ClusterRouter::DoMigrate(const Request& request) {
  const double t0 = telemetry::WallSeconds();
  std::string error;
  const auto ep = ParseEndpoint(request.endpoint, &error);
  if (!ep) return MakeError("MIGRATE: " + error);

  // Reach the joining node before touching the ring: a typo'd endpoint
  // must not open a window.
  auto probe_pool = std::make_unique<NodePool>(
      request.node_name, *ep, options_.node, registry_);
  Request ping;
  ping.type = RequestType::kPing;
  if (!probe_pool->Call(ping, &error)) {
    return MakeError("MIGRATE: cannot reach joining node: " + error);
  }

  // Open the handoff window: writes start dual-routing immediately.
  HashRing target_ring(options_.ring);
  std::vector<NodePool*> sources;
  {
    WriterLock lock(state_mu_);
    if (next_ring_) return MakeError("MIGRATE: migration already in progress");
    if (ring_.HasNode(request.node_name)) {
      return MakeError("MIGRATE: node '" + request.node_name +
                       "' already on the ring");
    }
    if (ring_.num_nodes() == 0) {
      return MakeError("MIGRATE: seed the ring before migrating");
    }
    if (pools_.find(request.node_name) == pools_.end()) {
      pools_[request.node_name] = std::move(probe_pool);
    }
    next_ring_ = ring_;
    next_ring_->AddNode(request.node_name, *ep);
    target_ring = *next_ring_;
    for (const std::string& name : ring_.NodeNames()) {
      sources.push_back(pools_.at(name).get());
    }
  }
  NodePool* joiner = nullptr;
  {
    ReaderLock lock(state_mu_);
    joiner = pools_.at(request.node_name).get();
  }

  // Stream state: SNAPSHOT each existing node, keep only the entries the
  // new ring hands to the joiner, RESTORE them there.  Runs without the
  // state lock — the router keeps serving, dual-writes cover inserts that
  // land mid-stream.
  std::uint64_t moved_entries = 0;
  std::uint64_t moved_bytes = 0;
  std::string failure;
  for (NodePool* source : sources) {
    Request snap;
    snap.type = RequestType::kSnapshot;
    const auto blob = source->Call(snap, &error);
    if (!blob || blob->type != ResponseType::kSnapshotData) {
      failure = "MIGRATE: snapshot from " + source->name() + " failed: " +
                (blob ? blob->message : error);
      break;
    }
    std::vector<SemanticElement> keep;
    // The source's clock reading travels with its elements, so the joiner
    // rebases their timestamps into its own clock on RESTORE.
    std::optional<double> source_now;
    try {
      std::istringstream in(blob->message);
      serve::ForEachEngineSnapshotElement(in, [&](SemanticElement se) {
        // Tenant-owned entries migrate with their namespace, not their key.
        const std::string pkey =
            se.tenant.empty() ? PlacementKey(se.key)
                              : tenant::PlacementKeyFor(se.tenant);
        const auto owners = target_ring.OwnersFor(pkey);
        if (std::find(owners.begin(), owners.end(), request.node_name) !=
            owners.end()) {
          keep.push_back(std::move(se));
        }
      }, &source_now);
    } catch (const std::exception& e) {
      failure = "MIGRATE: bad snapshot from " + source->name() + ": " +
                e.what();
      break;
    }
    if (keep.empty()) continue;
    std::ostringstream packed;
    serve::WriteEngineSnapshot(packed, keep, source_now);
    Request restore;
    restore.type = RequestType::kRestore;
    restore.blob = std::move(packed).str();
    const std::size_t blob_size = restore.blob.size();
    const auto applied = joiner->Call(restore, &error);
    if (!applied || applied->type != ResponseType::kOk) {
      failure = "MIGRATE: restore to " + request.node_name + " failed: " +
                (applied ? applied->message : error);
      break;
    }
    moved_entries += keep.size();
    moved_bytes += blob_size;
    migration_bytes_->Inc(blob_size);
  }

  if (!failure.empty()) {
    // Abort: close the window, keep the old ring.  The joiner's pool stays
    // registered (workers may hold its pointer) but owns no keys.
    WriterLock lock(state_mu_);
    next_ring_.reset();
    return MakeError(failure);
  }

  // Commit: the new ring becomes the read ring in one swap.
  {
    WriterLock lock(state_mu_);
    ring_ = *next_ring_;
    next_ring_.reset();
    ring_version_gauge_->Set(static_cast<double>(ring_.version()));
    nodes_gauge_->Set(static_cast<double>(ring_.num_nodes()));
  }
  migrations_->Inc();
  migration_entries_->Inc(moved_entries);
  migration_seconds_->Set(telemetry::WallSeconds() - t0);

  Response r = MakeResponse(ResponseType::kOk);
  r.id = moved_entries;
  return r;
}

Response ClusterRouter::BuildCluster() const {
  Response r = MakeResponse(ResponseType::kStats);
  ReaderLock lock(state_mu_);
  r.stats = {
      {"ring_version", std::to_string(ring_.version())},
      {"nodes", std::to_string(ring_.num_nodes())},
      {"replication", std::to_string(options_.ring.replication)},
      {"vnodes_per_node", std::to_string(options_.ring.vnodes_per_node)},
      {"migrating", next_ring_ ? "1" : "0"},
  };
  std::size_t i = 0;
  for (const std::string& name : ring_.NodeNames()) {
    const std::string prefix = "node" + std::to_string(i++) + "_";
    const NodeEndpoint* ep = ring_.EndpointOf(name);
    const auto it = pools_.find(name);
    r.stats.emplace_back(prefix + "name", name);
    r.stats.emplace_back(prefix + "endpoint",
                         ep != nullptr ? ep->ToString() : "?");
    if (it != pools_.end()) {
      r.stats.emplace_back(prefix + "healthy",
                           it->second->healthy() ? "1" : "0");
      r.stats.emplace_back(prefix + "requests",
                           std::to_string(it->second->requests()));
      r.stats.emplace_back(prefix + "failures",
                           std::to_string(it->second->failures()));
    }
  }
  return r;
}

Response ClusterRouter::BuildStats() const {
  Response r = MakeResponse(ResponseType::kStats);
  registry_->Snapshot().AppendKeyValues(&r.stats);
  return r;
}

}  // namespace cortex::cluster
