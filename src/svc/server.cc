#include "server.hh"

#include <algorithm>
#include <utility>

#include "util/diag.hh"
#include "util/thread_pool.hh"

namespace cryo::svc
{

Server::Conn::~Conn()
{
    closeFd(fd);
}

Server::Server(ServerConfig config)
    : cfg_(std::move(config)),
      cache_(std::make_unique<dse::ResultCache>(
          cfg_.cachePath, // "" = in-memory only
          cfg_.tolerateReadOnlyCache
              ? dse::CacheWritability::kTolerateReadOnly
              : dse::CacheWritability::kRequireWritable,
          cfg_.fsyncCache ? dse::CacheDurability::kFsyncPerStore
                          : dse::CacheDurability::kWritePerStore,
          cfg_.evalThreads)),
      eval_(evaluator_, cache_.get()),
      epoch_(std::chrono::steady_clock::now()),
      admission_(cfg_.admission)
{
    fatalIf(cfg_.socketPath.empty(), "server needs a socket path");
    fatalIf(cfg_.maxLineBytes == 0, "maxLineBytes must be positive");
}

Server::~Server()
{
    stop();
}

std::int64_t
Server::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Server::start()
{
    {
        std::lock_guard<std::mutex> lock(stateMu_);
        fatalIf(running_, "server already started");
        running_ = true;
        stopping_ = false;
    }
    if (cfg_.evalThreads > 0)
        ThreadPool::global().ensureWorkers(cfg_.evalThreads);
    listener_ = std::make_unique<UnixListener>(cfg_.socketPath);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::stop()
{
    {
        std::unique_lock<std::mutex> lock(stateMu_);
        if (!running_)
            return;
        if (stopping_) {
            // Another thread is mid-stop; wait for it to finish.
            stateCv_.wait(lock, [this] { return !running_; });
            return;
        }
        stopping_ = true;
    }

    listener_->close();
    if (acceptThread_.joinable())
        acceptThread_.join();

    {
        // Wake every connection reader; replies still flow out.
        std::lock_guard<std::mutex> lock(connsMu_);
        for (const std::shared_ptr<Conn> &c : conns_)
            shutdownRead(c->fd);
    }
    for (std::thread &t : connThreads_)
        if (t.joinable())
            t.join();

    // Shed whatever queued behind the concurrency limit: every
    // request gets exactly one reply, even across shutdown.
    std::deque<Pending> shed;
    {
        std::lock_guard<std::mutex> lock(admissionMu_);
        while (!pending_.empty()) {
            admission_.dropQueued();
            shed.push_back(std::move(pending_.front()));
            pending_.pop_front();
        }
    }
    for (const Pending &p : shed) {
        std::lock_guard<std::mutex> lock(admissionMu_);
        const std::int64_t lat = nowUs() - p.startUs;
        sendReply(p.conn,
                  formatOverloaded(p.req.id, admission_.inflight(),
                                   admission_.queued(),
                                   admission_.limit(), lat),
                  "overloaded", lat);
    }

    {
        std::unique_lock<std::mutex> lock(stateMu_);
        if (!stateCv_.wait_for(
                lock, std::chrono::milliseconds(cfg_.drainDeadlineMs),
                [this] { return outstanding_ == 0; })) {
            // In-flight tasks hold `this` and cannot be abandoned;
            // all a deadline can buy is a loud diagnostic.
            warn("drain deadline (" +
                 std::to_string(cfg_.drainDeadlineMs) +
                 " ms) passed with " + std::to_string(outstanding_) +
                 " evaluation(s) still in flight; waiting for them");
            stateCv_.wait(lock, [this] { return outstanding_ == 0; });
        }
        running_ = false;
        stateCv_.notify_all();
    }

    // Every reply is out; make the checkpoint survive power loss
    // too before reporting the shutdown as complete.
    cache_->flush();

    listener_.reset();
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.clear();
        connThreads_.clear();
    }
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(stateMu_);
    return shutdownRequested_;
}

bool
Server::waitShutdown(std::int64_t pollMs)
{
    std::unique_lock<std::mutex> lock(stateMu_);
    stateCv_.wait_for(lock, std::chrono::milliseconds(pollMs),
                      [this] { return shutdownRequested_; });
    return shutdownRequested_;
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = listener_->accept();
        if (fd < 0)
            return;
        stats_.onConnection();
        auto conn = std::make_shared<Conn>(fd);
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.push_back(conn);
        connThreads_.emplace_back(
            [this, conn] { connLoop(conn); });
    }
}

void
Server::connLoop(std::shared_ptr<Conn> conn)
{
    LineReader reader{conn->fd, cfg_.maxLineBytes};
    std::string line;
    for (;;) {
        const LineReader::Status status = reader.next(&line);
        if (status == LineReader::Status::kLine) {
            handleLine(conn, line);
            continue;
        }
        if (status == LineReader::Status::kOverlong) {
            // Framing is lost; say why, then drop the connection.
            sendReply(conn,
                      formatError(false, "",
                                  "request line exceeds " +
                                      std::to_string(cfg_.maxLineBytes) +
                                      " bytes",
                                  0),
                      "error", 0);
        }
        break; // kEof / kError / kOverlong
    }

    // Release this reader's ownership share. In-flight and queued
    // evaluations for this connection hold their own Conn references,
    // so their replies still go out; once the last one is written the
    // fd closes and the client sees EOF now - not at server shutdown.
    std::lock_guard<std::mutex> lock(connsMu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
}

void
Server::sendReply(const std::shared_ptr<Conn> &conn,
                  const std::string &line, const std::string &status,
                  std::int64_t latencyUs)
{
    bool sent;
    {
        std::lock_guard<std::mutex> lock(conn->writeMu);
        sent = sendAll(conn->fd, line + "\n");
    }
    // The reply is accounted even when the peer vanished: "exactly
    // one reply per request" is a server-side invariant.
    stats_.onReply(status, latencyUs);
    if (!sent)
        stats_.onSendFailure();
}

std::string
Server::formatStatsReply(const Request &req, std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(req.id);
    w.key("status").value("ok");
    w.key("op").value("stats");
    w.key("stats");
    w.beginObject();
    w.key("server");
    stats_.writeJson(w);
    {
        std::lock_guard<std::mutex> lock(admissionMu_);
        w.key("admission");
        w.beginObject();
        w.key("limit").value(
            static_cast<std::uint64_t>(admission_.limit()));
        w.key("inflight").value(
            static_cast<std::uint64_t>(admission_.inflight()));
        w.key("queued").value(
            static_cast<std::uint64_t>(admission_.queued()));
        w.key("state").value(admission_.stateName());
        w.key("windows").value(admission_.windowsCompleted());
        w.endObject();
    }
    w.key("cache");
    w.beginObject();
    w.key("persistent").value(!cfg_.cachePath.empty());
    w.key("entries").value(static_cast<std::uint64_t>(cache_->size()));
    w.key("loaded").value(
        static_cast<std::uint64_t>(cache_->loadedEntries()));
    w.key("writable").value(cache_->writable());
    w.endObject();
    w.key("evaluator");
    w.beginObject();
    w.key("evaluations").value(
        static_cast<std::uint64_t>(eval_.evaluations()));
    w.key("inflight_high_water").value(
        static_cast<std::uint64_t>(eval_.inflightHighWater()));
    w.endObject();
    w.endObject();
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line)
{
    const std::int64_t start = nowUs();
    stats_.onReceived();

    bool hasId = false;
    std::string id;
    Request req;
    try {
        const JsonValue v = parseJson(line, "<request>");
        if (v.isObject()) {
            // Recover the id before strict validation so even a bad
            // request's error reply can be correlated by the client.
            const JsonValue *idv = v.find("id");
            if (idv != nullptr && idv->isString()) {
                id = idv->asString();
                hasId = true;
            }
        }
        req = requestFromJson(v);
    } catch (const FatalError &err) {
        sendReply(conn,
                  formatError(hasId, id, err.message(),
                              nowUs() - start),
                  "error", nowUs() - start);
        return;
    }

    switch (req.op) {
    case Op::kPing:
        sendReply(conn, formatAck(req.id, req.op, nowUs() - start),
                  "ok", nowUs() - start);
        return;
    case Op::kStats:
        sendReply(conn, formatStatsReply(req, nowUs() - start), "ok",
                  nowUs() - start);
        return;
    case Op::kShutdown:
        sendReply(conn, formatAck(req.id, req.op, nowUs() - start),
                  "ok", nowUs() - start);
        {
            std::lock_guard<std::mutex> lock(stateMu_);
            shutdownRequested_ = true;
            stateCv_.notify_all();
        }
        return;
    case Op::kEval:
        break;
    }

    AdmissionController::Decision decision;
    std::size_t inflight, queued, limit;
    {
        std::lock_guard<std::mutex> lock(admissionMu_);
        decision = admission_.admit(start);
        if (decision == AdmissionController::Decision::kQueue)
            pending_.push_back(
                Pending{conn, std::move(req), start});
        inflight = admission_.inflight();
        queued = admission_.queued();
        limit = admission_.limit();
    }
    stats_.notePeaks(queued, inflight);

    switch (decision) {
    case AdmissionController::Decision::kRun:
        submitEval(Pending{conn, std::move(req), start});
        return;
    case AdmissionController::Decision::kQueue:
        return; // a completion will promote it
    case AdmissionController::Decision::kShed:
        sendReply(conn,
                  formatOverloaded(req.id, inflight, queued, limit,
                                   nowUs() - start),
                  "overloaded", nowUs() - start);
        return;
    }
}

void
Server::submitEval(Pending p)
{
    {
        std::lock_guard<std::mutex> lock(stateMu_);
        ++outstanding_;
    }
    ThreadPool::global().submit([this, p = std::move(p)] {
        std::string reply;
        std::string status;
        // The deadline gates *starting* work: a request that aged out
        // in the admission queue expires here instead of burning an
        // eval slot on an answer nobody is waiting for.
        const std::int64_t waitedUs = nowUs() - p.startUs;
        if (p.req.deadlineMs > 0 &&
            waitedUs > p.req.deadlineMs * 1000) {
            reply = formatExpired(p.req.id, p.req.deadlineMs,
                                  waitedUs);
            status = "expired";
            sendReply(p.conn, reply, status, waitedUs);
            finishEval();
            {
                std::lock_guard<std::mutex> lock(stateMu_);
                --outstanding_;
                stateCv_.notify_all();
            }
            return;
        }
        try {
            CRYO_CONTEXT("serving eval request \"" + p.req.id + "\"");
            const dse::CachedEvaluator::Outcome out =
                eval_.evaluate(p.req.point);
            stats_.onEvalOutcome(out.cacheHit, out.deduped);
            reply = formatOkEval(p.req, out.hash, out.cacheHit,
                                 out.deduped, out.metrics,
                                 nowUs() - p.startUs);
            status = "ok";
        } catch (const FatalError &err) {
            reply =
                formatFailed(p.req.id, err, nowUs() - p.startUs);
            status = "failed";
        }
        sendReply(p.conn, reply, status, nowUs() - p.startUs);
        finishEval();
        // Notify under the lock: this task runs on the process-wide
        // pool and so can outlive stop()'s wait, which destroys the
        // Server (and stateCv_) the moment it observes
        // outstanding_ == 0. wait() must re-acquire stateMu_ before
        // returning, so broadcasting while still holding it
        // guarantees the cv access finishes before teardown.
        {
            std::lock_guard<std::mutex> lock(stateMu_);
            --outstanding_;
            stateCv_.notify_all();
        }
    });
}

void
Server::finishEval()
{
    std::vector<Pending> promoted;
    {
        std::lock_guard<std::mutex> lock(admissionMu_);
        admission_.release(nowUs());
        while (admission_.canPromote() && !pending_.empty()) {
            admission_.promoteQueued();
            promoted.push_back(std::move(pending_.front()));
            pending_.pop_front();
        }
    }
    for (Pending &p : promoted)
        submitEval(std::move(p));
}

} // namespace cryo::svc
