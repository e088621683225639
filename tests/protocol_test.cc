// Wire-protocol enforcement for the dbimd service: every verb and response
// kind round-trips through Format/Parse, and the parser rejects arbitrary
// garbage — random bytes, truncated lines, oversized tokens, interleaved
// partial writes — with a clean error, never a crash and never a framing
// desync. The socket-level fuzz at the bottom drives a live server and
// proves the one-terminal-reply-per-line contract holds for garbage too:
// a tagged PING after each batch must come back on the right tag in the
// right position.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/spec.h"
#include "test_util.h"

namespace dbim {
namespace {

// ---------------------------------------------------------------- tokens --

TEST(ProtocolToken, RoundTripsArbitraryBytes) {
  const std::vector<std::string> cases = {
      "",        "plain",      "two words",  "%",        "100%",
      "a\tb",    "line\nfeed", "\r\n",       "caf\xc3\xa9",
      std::string("\x00\x01\x7f\xff", 4),    " leading", "trailing ",
      "%25%20",  "_",          "i:7",        "s:x"};
  for (const std::string& s : cases) {
    const std::string encoded = EncodeToken(s);
    EXPECT_EQ(encoded.find(' '), std::string::npos) << encoded;
    EXPECT_FALSE(encoded.empty());
    for (const char c : encoded) {
      EXPECT_TRUE(c >= 0x21 && c <= 0x7e) << "unprintable byte in " << encoded;
    }
    std::string decoded, error;
    ASSERT_TRUE(DecodeToken(encoded, &decoded, &error)) << error;
    EXPECT_EQ(decoded, s);
  }
}

TEST(ProtocolToken, EmptyStringIsUnambiguous) {
  // "" encodes as the lone "%", while a literal "%" escapes to "%25".
  EXPECT_EQ(EncodeToken(""), "%");
  EXPECT_EQ(EncodeToken("%"), "%25");
  std::string out, error;
  ASSERT_TRUE(DecodeToken("%", &out, &error));
  EXPECT_EQ(out, "");
}

TEST(ProtocolToken, RejectsMalformedEscapes) {
  std::string out, error;
  for (const std::string bad :
       {"%2", "%zz", "a%", "a%2", "%%", "with space", "ctrl\x01byte",
        "tab\there", ""}) {
    EXPECT_FALSE(DecodeToken(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ---------------------------------------------------------------- values --

TEST(ProtocolValue, RoundTripsEveryKind) {
  const std::vector<Value> cases = {
      Value(),  // null
      Value(0),
      Value(-1),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(0.0),
      Value(-0.0),
      Value(0.1),
      Value(1.0 / 3.0),
      Value(-2.5e307 * 3.0),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<double>::max()),
      Value(""),
      Value("plain"),
      Value("with space and % and \n"),
  };
  for (const Value& v : cases) {
    const std::string encoded = EncodeValue(v);
    Value decoded;
    std::string error;
    ASSERT_TRUE(DecodeValue(encoded, &decoded, &error))
        << encoded << ": " << error;
    EXPECT_EQ(decoded.kind(), v.kind()) << encoded;
    EXPECT_TRUE(decoded == v) << encoded;
    if (v.kind() == Value::Kind::kDouble) {
      // Bit-exact, not just Value-equal (int/double cross-equality).
      EXPECT_EQ(std::signbit(decoded.as_double()), std::signbit(v.as_double()))
          << encoded;
      EXPECT_EQ(std::memcmp(&decoded, &decoded, 0), 0);  // no-op, documents
    }
  }
}

TEST(ProtocolValue, RejectsIllTypedTokens) {
  Value out;
  std::string error;
  for (const std::string bad :
       {"", "x", "i:", "i:abc", "i:1x", "d:", "d:nope", "7", "__",
        "i:99999999999999999999999999"}) {
    EXPECT_FALSE(DecodeValue(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// -------------------------------------------------------------- requests --

void ExpectRequestRoundTrips(const Request& request) {
  const std::string line = FormatRequest(request);
  Request parsed;
  std::string error;
  ASSERT_TRUE(ParseRequest(line, &parsed, &error)) << line << ": " << error;
  EXPECT_EQ(parsed.tag, request.tag) << line;
  EXPECT_EQ(parsed.verb, request.verb) << line;
  EXPECT_EQ(parsed.session, request.session) << line;
  EXPECT_EQ(parsed.apply_kind, request.apply_kind) << line;
  ASSERT_EQ(parsed.values.size(), request.values.size()) << line;
  for (size_t i = 0; i < parsed.values.size(); ++i) {
    EXPECT_TRUE(parsed.values[i] == request.values[i]) << line;
  }
  EXPECT_EQ(parsed.fact_id, request.fact_id) << line;
  EXPECT_EQ(parsed.attr, request.attr) << line;
  EXPECT_EQ(parsed.threshold, request.threshold) << line;
}

TEST(ProtocolRequest, EveryVerbRoundTrips) {
  std::vector<Request> requests = {
      Request::Ping(),
      Request::Schema(),
      Request::MakeRegister("tenant one"),  // space survives encoding
      Request::Insert("s", {Value(1), Value("x y"), Value(0.125), Value()}),
      Request::Delete("s", 42),
      Request::Update("s", 7, 2, Value("new")),
      Request::Evaluate("s"),
      Request::EvaluateAll(),
      Request::Stats("s"),
      Request::Dump("s"),
      Request::MakeUnregister("s"),
      Request::Vacuum(0.25),
  };
  for (Request& r : requests) {
    r.tag = "t-1.A_z";
    ExpectRequestRoundTrips(r);
  }
}

TEST(ProtocolRequest, RejectsStructuralGarbage) {
  Request out;
  std::string error;
  const std::vector<std::string> bad = {
      "",                          // empty line
      " ",                         // lone space
      "PING",                      // verb without tag
      "t",                         // tag without verb
      "t  PING",                   // double space = empty token
      " t PING",                   // leading space
      "t PING ",                   // trailing space = empty token
      "t ping",                    // verbs are case-sensitive
      "t NOSUCHVERB",              // unknown verb
      "t PING extra",              // arity: PING takes nothing
      "t REGISTER",                // missing session
      "t REGISTER a b",            // too many args
      "t APPLY s INSERT",          // INSERT needs >= 1 value
      "t APPLY s DELETE",          // missing id
      "t APPLY s DELETE x",        // non-numeric id
      "t APPLY s DELETE 1 2",      // too many args
      "t APPLY s UPDATE 1 2",      // missing value
      "t APPLY s UPDATE 1 x i:1",  // non-numeric attr
      "t APPLY s FROB 1",          // unknown apply kind
      "t APPLY s DELETE 99999999999999999999",  // u64 overflow
      "t VACUUM",                  // missing threshold
      "t VACUUM x",                // non-numeric threshold
      "t VACUUM 1.5",              // out of [0, 1]
      "t VACUUM -0.1",             // out of [0, 1]
      "t EVALUATE %2",             // malformed session encoding
      "bad tag! PING",             // tag charset
      std::string(kMaxTagBytes + 1, 'a') + " PING",  // tag too long
      "t REGISTER " + std::string(2 * kMaxSessionNameBytes + 2, 'a'),
      std::string("t PING\x01", 7),  // control byte
  };
  for (const std::string& line : bad) {
    EXPECT_FALSE(ParseRequest(line, &out, &error)) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(ProtocolRequest, TagRecoveredForAddressableErrors) {
  Request out;
  std::string error;
  // A parseable tag is preserved so the error reply can be addressed...
  EXPECT_FALSE(ParseRequest("mytag NOSUCHVERB", &out, &error));
  EXPECT_EQ(out.tag, "mytag");
  // ...and "*" stands in when no tag could be read.
  EXPECT_FALSE(ParseRequest("bad!tag PING", &out, &error));
  EXPECT_EQ(out.tag, "*");
  EXPECT_FALSE(ParseRequest("", &out, &error));
  EXPECT_EQ(out.tag, "*");
}

// ------------------------------------------------------------- responses --

TEST(ProtocolResponse, RoundTripsEveryKind) {
  const std::vector<Response> cases = {
      Response::Ok("t1"),
      Response::Ok("t2", {"17", "0", "1"}),
      Response::Item("t3", {"0", "i:5", "s:x", "_"}),
      Response::Error("t4", "NO_SESSION", "no session named \"x y\""),
      Response::Error("*", "BAD_REQUEST", ""),
  };
  for (const Response& r : cases) {
    const std::string line = FormatResponse(r);
    Response parsed;
    std::string error;
    ASSERT_TRUE(ParseResponse(line, &parsed, &error)) << line << ": " << error;
    EXPECT_EQ(parsed.tag, r.tag) << line;
    EXPECT_EQ(parsed.kind, r.kind) << line;
    EXPECT_EQ(parsed.args, r.args) << line;
    EXPECT_EQ(parsed.error_code, r.error_code) << line;
    EXPECT_EQ(parsed.error_message, r.error_message) << line;
  }
}

TEST(ProtocolResponse, RejectsGarbage) {
  Response out;
  std::string error;
  const std::vector<std::string> bad_lines = {
      "",      "t",          "t NOPE",
      "t OK  x", "t ERR",    "t ERR CODE",
      "t ERR CODE msg extra", std::string("t OK \x02", 6)};
  for (const std::string& bad : bad_lines) {
    EXPECT_FALSE(ParseResponse(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ----------------------------------------------------------- line buffer --

TEST(ProtocolLineBuffer, ReassemblesInterleavedPartialWrites) {
  // Two pipelined requests delivered one byte at a time — the exact shape
  // of a slow sender — must frame into the same two lines.
  const std::string stream = "t1 PING\nt2 EVALUATE s\r\n";
  LineBuffer buffer;
  std::vector<std::string> lines;
  for (const char c : stream) {
    ASSERT_TRUE(buffer.Feed(&c, 1, &lines));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "t1 PING");
  EXPECT_EQ(lines[1], "t2 EVALUATE s");  // CR stripped

  // And in one burst, including an incomplete trailing fragment.
  LineBuffer burst;
  lines.clear();
  const std::string chunk = "a PING\nb PING\nc PIN";
  ASSERT_TRUE(burst.Feed(chunk.data(), chunk.size(), &lines));
  ASSERT_EQ(lines.size(), 2u);
  lines.clear();
  ASSERT_TRUE(burst.Feed("G\n", 2, &lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "c PING");
}

TEST(ProtocolLineBuffer, OverflowIsSticky) {
  LineBuffer buffer(/*max_line_bytes=*/8);
  std::vector<std::string> lines;
  const std::string big(64, 'x');
  EXPECT_FALSE(buffer.Feed(big.data(), big.size(), &lines));
  EXPECT_TRUE(buffer.overflowed());
  // The stream cannot be re-framed: even a clean newline keeps failing.
  EXPECT_FALSE(buffer.Feed("\n", 1, &lines));
  EXPECT_TRUE(lines.empty());
}

// --------------------------------------------------------- session flags --

// SessionOptionsFromFlags: the flags dbimd and dbim_cli share. Good values
// land in the options; a bad value is an error naming the flag, never a
// silent fallback (0 threads = every hardware thread, a disabled window,
// no approximation).
bool ParseFlags(std::vector<std::string> args, SessionOptions* options,
                std::string* error) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return SessionOptionsFromFlags(static_cast<int>(argv.size()), argv.data(),
                                 options, error);
}

TEST(SessionFlags, ParsesGoodValues) {
  SessionOptions options;
  std::string error;
  ASSERT_TRUE(ParseFlags({}, &options, &error)) << error;
  EXPECT_EQ(options.detector.num_threads, 1u);
  EXPECT_FALSE(options.window.enabled());
  EXPECT_FALSE(options.approx.enabled());

  ASSERT_TRUE(ParseFlags({"--threads=0", "--window=ticks:12", "--approx=0.05",
                          "--measures=I_d,I_MI", "--mc"},
                         &options, &error))
      << error;
  EXPECT_EQ(options.detector.num_threads, 0u);
  EXPECT_EQ(options.window.kind, WindowSpec::Kind::kTicks);
  EXPECT_EQ(options.window.size, 12u);
  EXPECT_EQ(options.approx.eps, 0.05);
  EXPECT_EQ(options.only, (std::vector<std::string>{"I_d", "I_MI"}));
  EXPECT_TRUE(options.registry.include_mc);

  ASSERT_TRUE(ParseFlags({"--threads=8", "--window=count:3", "--approx=1"},
                         &options, &error))
      << error;
  EXPECT_EQ(options.detector.num_threads, 8u);
  EXPECT_EQ(options.window.kind, WindowSpec::Kind::kCount);
  EXPECT_EQ(options.window.size, 3u);
  EXPECT_EQ(options.approx.eps, 1.0);
}

TEST(SessionFlags, RejectsBadValues) {
  const std::vector<std::string> bad = {
      "--threads=abc",     "--threads=-1",      "--threads=4x",
      "--threads=99999999999999999999",
      "--window=count:abc", "--window=bogus:3", "--window=count",
      "--window=count:0",  "--window=ticks:3:4", "--window=count:-2",
      "--approx=abc",      "--approx=0",        "--approx=-0.1",
      "--approx=1.5",      "--approx=nan",      "--approx=inf",
      "--approx=0.1x"};
  for (const std::string& flag : bad) {
    SessionOptions options;
    std::string error;
    EXPECT_FALSE(ParseFlags({flag}, &options, &error)) << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(error.find(name), std::string::npos) << flag << ": " << error;
  }
}

// ------------------------------------------------------------- fuzz (in) --

// A printable-garbage line: mostly ASCII, occasional escapes and high
// bytes, never a newline (framing is LineBuffer's job, tested above).
std::string RandomLine(Rng& rng, size_t max_len) {
  const size_t len = rng.UniformIndex(max_len + 1);
  std::string line;
  line.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    const size_t draw = rng.UniformIndex(100);
    if (draw < 70) {
      line.push_back(static_cast<char>(0x20 + rng.UniformIndex(0x5f)));
    } else if (draw < 80) {
      line.push_back('%');
    } else if (draw < 90) {
      // Any byte except '\n' — a newline would split the line in two at
      // the peer and is LineBuffer territory, not the parser's.
      const char raw = static_cast<char>(rng.UniformIndex(256));
      line.push_back(raw == '\n' ? '\r' : raw);
    } else {
      line += " PING";
    }
  }
  return line;
}

TEST(ProtocolFuzz, ParserNeverCrashesOnGarbage) {
  Rng rng(20210708);
  size_t accepted = 0;
  const std::vector<std::string> valid = {
      "t PING",
      "t SCHEMA",
      "t REGISTER s",
      "t APPLY s INSERT i:1 s:x _ d:0.5",
      "t APPLY s DELETE 3",
      "t APPLY s UPDATE 3 1 i:9",
      "t EVALUATE s",
      "t EVALUATE_ALL",
      "t STATS s",
      "t DUMP s",
      "t UNREGISTER s",
      "t VACUUM 0.5",
  };
  size_t cases = 0;
  for (size_t i = 0; i < 1500; ++i) {
    std::string line;
    const size_t mode = rng.UniformIndex(4);
    if (mode == 0) {
      line = RandomLine(rng, 80);
    } else if (mode == 1) {
      // Truncated prefix of a valid request.
      const std::string& base = valid[rng.UniformIndex(valid.size())];
      line = base.substr(0, rng.UniformIndex(base.size() + 1));
    } else if (mode == 2) {
      // Valid request with one mutated byte.
      line = valid[rng.UniformIndex(valid.size())];
      if (!line.empty()) {
        line[rng.UniformIndex(line.size())] =
            static_cast<char>(rng.UniformIndex(256));
      }
    } else {
      // Oversized token glued onto a valid-looking head.
      line = "t REGISTER " +
             std::string(rng.UniformIndex(4096) + kMaxSessionNameBytes, 'a');
    }
    ++cases;
    Request request;
    std::string error;
    if (ParseRequest(line, &request, &error)) {
      ++accepted;
      // Anything accepted must re-format and re-parse identically (the
      // parser and formatter agree on the grammar).
      ExpectRequestRoundTrips(request);
    } else {
      EXPECT_FALSE(error.empty()) << line;
    }
    Response response;
    std::string response_error;
    if (!ParseResponse(line, &response, &response_error)) {
      EXPECT_FALSE(response_error.empty()) << line;
    }
  }
  ASSERT_GE(cases, 1000u);
  // Truncations and mutations occasionally stay valid ("t PING" cut to
  // nothing mutated back...), but the vast majority must be rejected.
  EXPECT_LT(accepted, cases / 4);
}

// ----------------------------------------------------------- fuzz (wire) --

// Garbage against a live server: every line — however malformed — draws
// exactly one terminal reply, and a tagged PING sent after each batch
// arrives in order on its own tag, proving the framing never desyncs.
TEST(ProtocolFuzzWire, ServerAnswersEveryGarbageLineExactlyOnce) {
  const ServiceSpec spec = ExampleSpec();
  ServiceOptions options;
  options.num_workers = 1;
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Rng rng(4242);
  for (int batch = 0; batch < 40; ++batch) {
    const size_t batch_size = 1 + rng.UniformIndex(8);
    for (size_t i = 0; i < batch_size; ++i) {
      std::string line = RandomLine(rng, 60);
      // Keep the stream frameable: RandomLine never emits '\n', but a
      // stray '\r' mid-line is fine and must be rejected, not crash.
      ASSERT_TRUE(client.SendRawLine(line, &error)) << error;
    }
    const std::string ping_tag = "sync" + std::to_string(batch);
    Request ping = Request::Ping();
    ping.tag = ping_tag;
    ASSERT_TRUE(client.SendRawLine(FormatRequest(ping), &error)) << error;

    // Exactly batch_size terminal replies, then the ping's OK.
    size_t terminals = 0;
    for (;;) {
      std::string line;
      ASSERT_TRUE(client.ReadRawLine(&line, &error)) << error;
      Response response;
      ASSERT_TRUE(ParseResponse(line, &response, &error))
          << line << ": " << error;
      if (response.kind == ResponseKind::kItem) continue;
      if (response.tag == ping_tag) {
        EXPECT_TRUE(response.ok());
        EXPECT_EQ(terminals, batch_size)
            << "framing desync in batch " << batch;
        break;
      }
      ++terminals;
      ASSERT_LE(terminals, batch_size) << "extra reply in batch " << batch;
    }
  }
  client.Close();
  server.Stop();
}

TEST(ProtocolFuzzWire, OversizedLineGetsTooLargeAndCut) {
  const ServiceSpec spec = ExampleSpec();
  ServiceOptions options;
  options.max_line_bytes = 1024;  // small cap keeps the test cheap
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.SendRawLine(std::string(4096, 'x'), &error)) << error;
  std::string line;
  ASSERT_TRUE(client.ReadRawLine(&line, &error)) << error;
  Response response;
  ASSERT_TRUE(ParseResponse(line, &response, &error)) << line;
  EXPECT_EQ(response.kind, ResponseKind::kErr);
  EXPECT_EQ(response.error_code, "TOO_LARGE");
  // The connection is cut: the next read reports closure, not a hang.
  EXPECT_FALSE(client.ReadRawLine(&line, &error));
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace dbim
