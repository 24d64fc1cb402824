#include "serve/client.hpp"

#include <cstdlib>

namespace atc::serve {

namespace {

/** Client-side sanity bound on a response payload: the server never
 *  sends more than a few bytes of header around 8 * max_range_records
 *  record bytes; anything bigger means a corrupt or hostile stream. */
constexpr uint32_t kMaxResponsePayload = 1u << 30;

} // namespace

util::StatusOr<ServeClient>
ServeClient::connect(const std::string &host, uint16_t port)
{
    auto sock = connectTo(host, port);
    if (!sock.ok())
        return sock.status();
    return ServeClient(sock.take());
}

util::Status
ServeClient::sendRequest(const Request &req)
{
    frame_.clear();
    encodeRequest(req, frame_);
    std::string err;
    IoResult r = sock_.writeFull(frame_.data(), frame_.size(), &err);
    if (r == IoResult::kOk)
        return util::Status();
    return util::Status::error(r == IoResult::kEof
                                   ? "server closed the connection"
                                   : "send failed: " + err);
}

util::Status
ServeClient::receive(ClientResponse &out)
{
    uint8_t len_bytes[4];
    std::string err;
    IoResult r = sock_.readFull(len_bytes, 4, &err);
    if (r != IoResult::kOk)
        return util::Status::error(r == IoResult::kEof
                                       ? "server closed the connection"
                                       : "receive failed: " + err);
    uint32_t len = getU32(len_bytes);
    if (len < kHeaderLen || len > kMaxResponsePayload)
        return util::Status::error("implausible response length " +
                                   std::to_string(len));
    std::vector<uint8_t> payload(len);
    r = sock_.readFull(payload.data(), len, &err);
    if (r != IoResult::kOk)
        return util::Status::error("response truncated: " + err);

    Response resp;
    if (!parseResponse(payload.data(), payload.size(), resp))
        return util::Status::error("malformed response header");
    out = ClientResponse();
    out.request_id = resp.request_id;
    out.op = resp.op;
    out.status = resp.status;
    if (resp.status != Wire::kOk) {
        out.error = resp.text();
        return util::Status();
    }
    // Records are decoded straight out of the payload; they sit at
    // payload offsets 12 (READ_RANGE) and 20 (SEEK), never 8-aligned.
    const uint8_t *body = resp.body;
    size_t n = resp.body_len;
    switch (resp.op) {
    case Op::Ping:
    case Op::Close:
    case Op::Shutdown:
        break;
    case Op::Open:
        // Fixed 14-byte body; open() decodes the scalars from the raw
        // bytes stashed in `text`.
        if (n < 14)
            return util::Status::error("OPEN response truncated");
        out.text = resp.text();
        break;
    case Op::Stat:
    case Op::Metrics:
        out.text = resp.text();
        break;
    case Op::Seek: {
        if (n < 12)
            return util::Status::error("SEEK response truncated");
        out.actual_pos = getU64(body);
        uint32_t count = getU32(body + 8);
        if (n != 12u + 8ull * count)
            return util::Status::error(
                "SEEK record payload disagrees with its count");
        out.records.resize(count);
        getU64s(body + 12, count, out.records.data());
        break;
    }
    case Op::ReadRange: {
        if (n < 4)
            return util::Status::error("READ_RANGE response truncated");
        uint32_t count = getU32(body);
        if (n != 4u + 8ull * count)
            return util::Status::error(
                "READ_RANGE record payload disagrees with its count");
        out.records.resize(count);
        getU64s(body + 4, count, out.records.data());
        break;
    }
    }
    return util::Status();
}

util::Status
ServeClient::call(const Request &req, ClientResponse &resp)
{
    util::Status sent = sendRequest(req);
    if (!sent.ok())
        return sent;
    util::Status got = receive(resp);
    if (!got.ok())
        return got;
    if (resp.request_id != req.request_id)
        return util::Status::error(
            "response id mismatch (pipelining mixed with sync calls?)");
    if (resp.status != Wire::kOk)
        return util::Status::error(std::string(wireName(resp.status)) +
                                   ": " + resp.error);
    return util::Status();
}

util::Status
ServeClient::ping()
{
    Request req;
    req.op = Op::Ping;
    req.request_id = next_id_++;
    ClientResponse resp;
    return call(req, resp);
}

util::StatusOr<RemoteTrace>
ServeClient::open(const std::string &name)
{
    Request req;
    req.op = Op::Open;
    req.request_id = next_id_++;
    req.name = name;
    ClientResponse resp;
    util::Status st = call(req, resp);
    if (!st.ok())
        return st;
    if (resp.text.size() < 14)
        return util::Status::error("OPEN response truncated");
    const uint8_t *body =
        reinterpret_cast<const uint8_t *>(resp.text.data());
    RemoteTrace out;
    out.handle = getU32(body);
    out.records = getU64(body + 4);
    out.lossy = body[12] != 0;
    out.container_version = body[13];
    return out;
}

util::Status
ServeClient::closeHandle(uint32_t handle)
{
    Request req;
    req.op = Op::Close;
    req.request_id = next_id_++;
    req.handle = handle;
    ClientResponse resp;
    return call(req, resp);
}

util::Status
ServeClient::seekRead(uint32_t handle, uint64_t pos, uint32_t count,
                      std::vector<uint64_t> &out, uint64_t *actual_pos)
{
    Request req;
    req.op = Op::Seek;
    req.request_id = next_id_++;
    req.handle = handle;
    req.begin = pos;
    req.count = count;
    ClientResponse resp;
    util::Status st = call(req, resp);
    if (!st.ok())
        return st;
    out = std::move(resp.records);
    if (actual_pos)
        *actual_pos = resp.actual_pos;
    return util::Status();
}

util::Status
ServeClient::readRange(uint32_t handle, uint64_t begin, uint64_t end,
                       std::vector<uint64_t> &out)
{
    Request req;
    req.op = Op::ReadRange;
    req.request_id = next_id_++;
    req.handle = handle;
    req.begin = begin;
    req.end = end;
    ClientResponse resp;
    util::Status st = call(req, resp);
    if (!st.ok())
        return st;
    out = std::move(resp.records);
    return util::Status();
}

util::StatusOr<std::string>
ServeClient::statText()
{
    Request req;
    req.op = Op::Stat;
    req.request_id = next_id_++;
    ClientResponse resp;
    util::Status st = call(req, resp);
    if (!st.ok())
        return st;
    return resp.text;
}

util::StatusOr<std::string>
ServeClient::metricsText()
{
    Request req;
    req.op = Op::Metrics;
    req.request_id = next_id_++;
    ClientResponse resp;
    util::Status st = call(req, resp);
    if (!st.ok())
        return st;
    return resp.text;
}

std::map<std::string, uint64_t>
ServeClient::parseStat(const std::string &text)
{
    std::map<std::string, uint64_t> out;
    size_t line = 0;
    while (line < text.size()) {
        size_t nl = text.find('\n', line);
        if (nl == std::string::npos)
            nl = text.size();
        size_t eq = text.find('=', line);
        if (eq != std::string::npos && eq < nl) {
            std::string key = text.substr(line, eq - line);
            const char *val = text.c_str() + eq + 1;
            char *end = nullptr;
            uint64_t v = std::strtoull(val, &end, 10);
            if (end != val)
                out[key] = v;
        }
        line = nl + 1;
    }
    return out;
}

util::Status
ServeClient::shutdownServer()
{
    Request req;
    req.op = Op::Shutdown;
    req.request_id = next_id_++;
    ClientResponse resp;
    return call(req, resp);
}

util::StatusOr<uint32_t>
ServeClient::sendSeekRead(uint32_t handle, uint64_t pos, uint32_t count)
{
    Request req;
    req.op = Op::Seek;
    req.request_id = next_id_++;
    req.handle = handle;
    req.begin = pos;
    req.count = count;
    util::Status st = sendRequest(req);
    if (!st.ok())
        return st;
    return req.request_id;
}

util::StatusOr<uint32_t>
ServeClient::sendReadRange(uint32_t handle, uint64_t begin, uint64_t end)
{
    Request req;
    req.op = Op::ReadRange;
    req.request_id = next_id_++;
    req.handle = handle;
    req.begin = begin;
    req.end = end;
    util::Status st = sendRequest(req);
    if (!st.ok())
        return st;
    return req.request_id;
}

} // namespace atc::serve
