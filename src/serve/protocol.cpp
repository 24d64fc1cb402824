#include "serve/protocol.hpp"

#include <bit>
#include <cstring>

namespace atc::serve {

const char *
wireName(Wire status)
{
    switch (status) {
    case Wire::kOk:
        return "ok";
    case Wire::kBadRequest:
        return "bad_request";
    case Wire::kBadVersion:
        return "bad_version";
    case Wire::kUnknownOp:
        return "unknown_opcode";
    case Wire::kNotFound:
        return "not_found";
    case Wire::kBadHandle:
        return "bad_handle";
    case Wire::kOutOfRange:
        return "out_of_range";
    case Wire::kTooLarge:
        return "too_large";
    case Wire::kOverloaded:
        return "overloaded";
    case Wire::kShuttingDown:
        return "shutting_down";
    case Wire::kInternal:
        return "internal";
    }
    return "unknown_status";
}

const char *
opName(Op op)
{
    switch (op) {
    case Op::Ping:
        return "ping";
    case Op::Open:
        return "open";
    case Op::Seek:
        return "seek";
    case Op::ReadRange:
        return "read_range";
    case Op::Stat:
        return "stat";
    case Op::Close:
        return "close";
    case Op::Shutdown:
        return "shutdown";
    case Op::Metrics:
        return "metrics";
    }
    return "unknown_op";
}

uint64_t
Request::records() const
{
    switch (op) {
    case Op::Seek:
        return count;
    case Op::ReadRange:
        return end - begin;
    default:
        return 0;
    }
}

void
putU16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t
getU16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

void
putU64s(std::vector<uint8_t> &out, const uint64_t *v, size_t n)
{
    if constexpr (std::endian::native == std::endian::little) {
        const auto *bytes = reinterpret_cast<const uint8_t *>(v);
        out.insert(out.end(), bytes, bytes + 8 * n);
    } else {
        out.reserve(out.size() + 8 * n);
        for (size_t i = 0; i < n; ++i)
            putU64(out, v[i]);
    }
}

void
getU64s(const uint8_t *p, size_t n, uint64_t *out)
{
    if constexpr (std::endian::native == std::endian::little) {
        if (n != 0)
            std::memcpy(out, p, 8 * n);
    } else {
        for (size_t i = 0; i < n; ++i)
            out[i] = getU64(p + 8 * i);
    }
}

namespace {

/** Append the fixed payload header. The u16 slot carries flags (0) on
 *  requests and the status code on responses. */
void
putHeader(std::vector<uint8_t> &out, Op op, uint16_t status_or_flags,
          uint32_t request_id)
{
    out.push_back(kProtocolVersion);
    out.push_back(static_cast<uint8_t>(op));
    putU16(out, status_or_flags);
    putU32(out, request_id);
}

} // namespace

void
encodeRequest(const Request &req, std::vector<uint8_t> &out)
{
    size_t len_at = out.size();
    putU32(out, 0); // length patched below
    putHeader(out, req.op, 0, req.request_id);
    switch (req.op) {
    case Op::Ping:
    case Op::Stat:
    case Op::Shutdown:
    case Op::Metrics:
        break;
    case Op::Open:
        putU16(out, static_cast<uint16_t>(req.name.size()));
        out.insert(out.end(), req.name.begin(), req.name.end());
        break;
    case Op::Seek:
        putU32(out, req.handle);
        putU64(out, req.begin);
        putU32(out, req.count);
        break;
    case Op::ReadRange:
        putU32(out, req.handle);
        putU64(out, req.begin);
        putU64(out, req.end);
        break;
    case Op::Close:
        putU32(out, req.handle);
        break;
    }
    uint32_t len = static_cast<uint32_t>(out.size() - len_at - 4);
    for (int i = 0; i < 4; ++i)
        out[len_at + i] = static_cast<uint8_t>(len >> (8 * i));
}

Wire
parseRequest(const uint8_t *payload, size_t n, Request &out,
             std::string &err)
{
    if (n < kHeaderLen) {
        err = "request payload shorter than the 8-byte header";
        return Wire::kBadRequest;
    }
    uint8_t version = payload[0];
    out.request_id = getU32(payload + 4);
    if (version != kProtocolVersion) {
        err = "unsupported protocol version " + std::to_string(version);
        return Wire::kBadVersion;
    }
    uint8_t op_byte = payload[1];
    if (op_byte > static_cast<uint8_t>(Op::Metrics)) {
        err = "unknown opcode " + std::to_string(op_byte);
        return Wire::kUnknownOp;
    }
    out.op = static_cast<Op>(op_byte);
    const uint8_t *body = payload + kHeaderLen;
    size_t body_len = n - kHeaderLen;
    // Exact body sizes: a trailing-garbage frame means the peer and we
    // disagree about the message layout — reject rather than guess.
    switch (out.op) {
    case Op::Ping:
    case Op::Stat:
    case Op::Shutdown:
    case Op::Metrics:
        if (body_len != 0) {
            err = "unexpected body on a bodyless request";
            return Wire::kBadRequest;
        }
        break;
    case Op::Open: {
        if (body_len < 2) {
            err = "OPEN body truncated";
            return Wire::kBadRequest;
        }
        uint16_t name_len = getU16(body);
        if (body_len != 2u + name_len || name_len == 0) {
            err = "OPEN name length disagrees with the body";
            return Wire::kBadRequest;
        }
        out.name.assign(reinterpret_cast<const char *>(body + 2),
                        name_len);
        break;
    }
    case Op::Seek:
        if (body_len != 16) {
            err = "SEEK body must be 16 bytes";
            return Wire::kBadRequest;
        }
        out.handle = getU32(body);
        out.begin = getU64(body + 4);
        out.count = getU32(body + 12);
        break;
    case Op::ReadRange:
        if (body_len != 20) {
            err = "READ_RANGE body must be 20 bytes";
            return Wire::kBadRequest;
        }
        out.handle = getU32(body);
        out.begin = getU64(body + 4);
        out.end = getU64(body + 12);
        break;
    case Op::Close:
        if (body_len != 4) {
            err = "CLOSE body must be 4 bytes";
            return Wire::kBadRequest;
        }
        out.handle = getU32(body);
        break;
    }
    return Wire::kOk;
}

void
beginResponse(std::vector<uint8_t> &out, Op op, Wire status,
              uint32_t request_id)
{
    out.clear();
    putU32(out, 0); // patched by finishResponse
    putHeader(out, op, static_cast<uint16_t>(status), request_id);
}

void
finishResponse(std::vector<uint8_t> &out)
{
    uint32_t len = static_cast<uint32_t>(out.size() - 4);
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(len >> (8 * i));
}

void
encodeErrorResponse(std::vector<uint8_t> &out, Op op, Wire status,
                    uint32_t request_id, const std::string &msg)
{
    beginResponse(out, op, status, request_id);
    out.insert(out.end(), msg.begin(), msg.end());
    finishResponse(out);
}

bool
parseResponse(const uint8_t *payload, size_t n, Response &out)
{
    if (n < kHeaderLen)
        return false;
    out.version = payload[0];
    out.op = static_cast<Op>(payload[1]);
    out.status = static_cast<Wire>(getU16(payload + 2));
    out.request_id = getU32(payload + 4);
    out.body = payload + kHeaderLen;
    out.body_len = n - kHeaderLen;
    return true;
}

} // namespace atc::serve
