/**
 * @file
 * Wire protocol of the trace-serving daemon (see docs/protocol.md for
 * the normative spec).
 *
 * Every message is a length-prefixed frame: a little-endian u32 byte
 * count followed by that many payload bytes. The payload opens with a
 * fixed 8-byte header — version, opcode, a u16 that carries flags on
 * requests and a status code on responses, and a u32 request id the
 * server echoes verbatim so clients may pipeline requests and match
 * responses out of order. Integers are little-endian throughout;
 * records travel as packed u64s.
 *
 * The protocol is versioned by the header byte: a server rejects
 * frames whose version it does not speak with kBadVersion and closes
 * the connection (framing itself may change across versions, so
 * resynchronization is not attempted). Within one version, message
 * bodies may only grow by appending fields — the length prefix tells
 * a reader where a peer's body ends.
 *
 * This header is shared by the server, the client library, and the
 * protocol tests; it has no socket dependencies, so the codecs can be
 * exercised against in-memory buffers.
 */

#ifndef ATC_SERVE_PROTOCOL_HPP_
#define ATC_SERVE_PROTOCOL_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace atc::serve {

/** Protocol version this build speaks. */
constexpr uint8_t kProtocolVersion = 1;

/** Bytes of the fixed payload header (version, opcode, status/flags,
 *  request id). */
constexpr size_t kHeaderLen = 8;

/** Hard ceiling on a *request* payload. Requests are tiny (the largest
 *  is OPEN with a container name); a declared length beyond this is a
 *  malformed or hostile frame and the connection is dropped after an
 *  error response — there is no way to resynchronize a stream whose
 *  framing cannot be trusted. */
constexpr uint32_t kMaxRequestPayload = 4096;

/** Request opcodes. */
enum class Op : uint8_t {
    Ping = 0,      ///< liveness probe; empty body both ways
    Open = 1,      ///< body: u16 name_len + name -> handle + metadata
    Seek = 2,      ///< body: u32 handle, u64 pos, u32 count -> records
    ReadRange = 3, ///< body: u32 handle, u64 begin, u64 end -> records
    Stat = 4,      ///< empty body -> key=value text
    Close = 5,     ///< body: u32 handle -> empty
    Shutdown = 6,  ///< empty body -> empty; server then stops
    Metrics = 7,   ///< empty body -> obs registry text (atc_metrics 1)
};

/** Number of opcodes (for per-opcode counter arrays). */
constexpr size_t kOpCount = static_cast<size_t>(Op::Metrics) + 1;

/** @return a stable lowercase name for @p op ("ping", "read_range"). */
const char *opName(Op op);

/** Response status codes (the u16 header field of a response). */
enum class Wire : uint16_t {
    kOk = 0,
    kBadRequest = 1,   ///< malformed body; connection is closed
    kBadVersion = 2,   ///< unsupported header version; closed
    kUnknownOp = 3,    ///< unrecognized opcode; connection survives
    kNotFound = 4,     ///< OPEN of an unserved container name
    kBadHandle = 5,    ///< handle not open on this connection
    kOutOfRange = 6,   ///< seek/range past end of trace, begin > end
    kTooLarge = 7,     ///< request exceeds max_range_records / framing
    kOverloaded = 8,   ///< admission control rejected the request
    kShuttingDown = 9, ///< server is stopping
    kInternal = 10,    ///< unexpected server-side failure
};

/** @return a stable lowercase name for @p status ("ok", "bad_handle"). */
const char *wireName(Wire status);

/** A parsed request, one variant per opcode (unused fields zero). */
struct Request
{
    Op op = Op::Ping;
    uint32_t request_id = 0;
    uint32_t handle = 0; ///< Seek / ReadRange / Close
    uint64_t begin = 0;  ///< Seek: position; ReadRange: first record
    uint64_t end = 0;    ///< ReadRange: one past the last record
    uint32_t count = 0;  ///< Seek: records to read after seeking
    std::string name;    ///< Open: container name

    /** Server-side arrival stamp (obs::nowNs() at parse time; 0 when
     *  observability is off). Never on the wire — it exists so queue
     *  wait and end-to-end latency can be measured per request. */
    uint64_t arrival_ns = 0;

    /** @return decoded records this request will pin while in flight
     *  (the admission-control unit); 0 for cheap ops. */
    uint64_t records() const;
};

// ---- little-endian primitives over byte vectors --------------------

void putU16(std::vector<uint8_t> &out, uint16_t v);
void putU32(std::vector<uint8_t> &out, uint32_t v);
void putU64(std::vector<uint8_t> &out, uint64_t v);
uint16_t getU16(const uint8_t *p);
uint32_t getU32(const uint8_t *p);
uint64_t getU64(const uint8_t *p);

/** Append @p n records as packed little-endian u64s: one bulk copy on
 *  little-endian hosts, putU64 per record elsewhere. */
void putU64s(std::vector<uint8_t> &out, const uint64_t *v, size_t n);

/** Decode @p n packed little-endian u64s at @p p, which need not be
 *  8-byte aligned, into @p out. */
void getU64s(const uint8_t *p, size_t n, uint64_t *out);

// ---- request encoding (client side) --------------------------------

/** Append the framed request for @p req to @p out (length prefix,
 *  header, body). */
void encodeRequest(const Request &req, std::vector<uint8_t> &out);

/**
 * Parse one request payload (the bytes after the length prefix).
 * @param payload payload bytes
 * @param n       payload length
 * @param out     receives the parsed request on success
 * @param err     receives a description when parsing fails
 * @return Wire::kOk, or the status the server should respond with
 *         (kBadVersion / kUnknownOp / kBadRequest)
 */
Wire parseRequest(const uint8_t *payload, size_t n, Request &out,
                  std::string &err);

// ---- response encoding (server side) -------------------------------

/** Start a response frame: length placeholder + header. Body bytes are
 *  appended by the caller, then finishResponse patches the length. */
void beginResponse(std::vector<uint8_t> &out, Op op, Wire status,
                   uint32_t request_id);

/** Patch the length prefix of a frame started by beginResponse. */
void finishResponse(std::vector<uint8_t> &out);

/** Build a complete error response whose body is a UTF-8 message. */
void encodeErrorResponse(std::vector<uint8_t> &out, Op op, Wire status,
                         uint32_t request_id, const std::string &msg);

// ---- response decoding (client side) -------------------------------

/** A response payload split into header fields and body bytes. */
struct Response
{
    uint8_t version = 0;
    Op op = Op::Ping;
    Wire status = Wire::kOk;
    uint32_t request_id = 0;
    /** The body: a view into the parsed payload, valid while the
     *  payload is. */
    const uint8_t *body = nullptr;
    size_t body_len = 0;

    /** @return the body interpreted as a UTF-8 string (error message
     *  or STAT text). */
    std::string text() const
    {
        return std::string(reinterpret_cast<const char *>(body), body_len);
    }
};

/**
 * Parse a response payload (the bytes after the length prefix); the
 * body is not copied (see Response::body).
 * @return false when the payload is too short to carry a header
 */
bool parseResponse(const uint8_t *payload, size_t n, Response &out);

} // namespace atc::serve

#endif // ATC_SERVE_PROTOCOL_HPP_
