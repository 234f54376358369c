// Shared plumbing for the command-line tools (tcheck, ttrace, tscope,
// tsim, tmon) and the benches that read flags.
//
// One implementation of each fragment the binaries would otherwise copy:
// the flag table that is their only argv parser, file slurp and write,
// tperf dump loading, the `--metric NAME` dispatch, and both ends of the
// tsim socket protocol. Binaries include it directly (they are leaf
// binaries, so a header-only helper keeps the build graph flat).
//
// Conventions the helpers encode:
//   * diagnostics go to stderr as "<tool>: <message>", and a bad flag is
//     one "<tool>: --flag: <what>" line;
//   * exit code 2 means usage / unreadable input, and the helpers return
//     2 or false (never exit()) so each binary keeps its own exit paths;
//   * metric values print one per line, machine-consumable (ci.sh awk).
#pragma once

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "perf/chrome_trace.hpp"
#include "perf/json.hpp"

namespace fpst::tools {

// ---- the flag table ----

/// The one argv parser: a table of typed flags. A flag takes its value
/// from the next argument, whatever that looks like. A value parses only
/// if std::from_chars consumes the whole token and the result lies in the
/// flag's range. An argument that starts with '-' and names no flag is an
/// error; any other argument is positional, if the table takes positional
/// arguments. parse() prints one "<tool>: <flag>: <what>" line on the
/// first error and returns false; the caller exits 2.
class Flags {
 public:
  explicit Flags(const char* tool) : tool_{tool} {}

  /// --name TEXT
  Flags& text(std::string name, std::string* out) {
    return add(std::move(name), true, [out](std::string_view v) {
      *out = v;
      return std::string{};
    });
  }

  /// --name N: an integer, or a real when T is floating-point, in
  /// [lo, hi] (by default T's whole range; NaN is never in range).
  template <class T>
  Flags& number(std::string name, T* out,
                std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    return add(std::move(name), true, [out, lo, hi](std::string_view v) {
      return parse_number(v, lo, hi, out);
    });
  }

  /// --name A,B,...: a comma-separated list of integers in [lo, hi].
  Flags& list(std::string name, std::vector<int>* out, int lo,
              int hi = std::numeric_limits<int>::max()) {
    return add(std::move(name), true, [out, lo, hi](std::string_view v) {
      std::vector<int> items;
      std::size_t pos = 0;
      for (;;) {
        const std::size_t comma = v.find(',', pos);
        int item = 0;
        const std::string err =
            parse_number(v.substr(pos, comma - pos), lo, hi, &item);
        if (!err.empty()) {
          return err;
        }
        items.push_back(item);
        if (comma == std::string_view::npos) {
          break;
        }
        pos = comma + 1;
      }
      *out = std::move(items);
      return std::string{};
    });
  }

  /// --name, a switch that takes no value.
  Flags& flag(std::string name, bool* out) {
    return add(std::move(name), false, [out](std::string_view) {
      *out = true;
      return std::string{};
    });
  }

  /// Collect the positional arguments, in order.
  Flags& positional(std::vector<std::string>* out) {
    positional_ = out;
    return *this;
  }

  /// Parse argv[first, argc).
  bool parse(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      Entry* e = find(arg);
      if (e == nullptr) {
        if (arg.starts_with('-')) {
          std::string have = "unknown option (have:";
          for (const Entry& known : entries_) {
            have += ' ';
            have += known.name;
          }
          return fail(arg, have + ")");
        }
        if (positional_ == nullptr) {
          return fail(arg, "unexpected argument");
        }
        positional_->emplace_back(arg);
        continue;
      }
      if (e->takes_value && i + 1 >= argc) {
        return fail(arg, "needs a value");
      }
      const std::string err = e->set(e->takes_value ? argv[++i] : "");
      if (!err.empty()) {
        return fail(arg, err);
      }
      e->seen = true;
    }
    return true;
  }

  /// Whether parse() met the flag.
  bool seen(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) {
        return e.seen;
      }
    }
    return false;
  }

 private:
  struct Entry {
    std::string name;
    bool takes_value;
    /// Store the value; the error text, or "" when it was accepted.
    std::function<std::string(std::string_view)> set;
    bool seen = false;
  };

  template <class T>
  static std::string parse_number(std::string_view v, T lo, T hi, T* out) {
    T x{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc{} && end == v.data() + v.size() &&
         !(lo <= x && x <= hi))) {
      return std::string(v) + " is outside [" + to_text(lo) + ", " +
             to_text(hi) + "]";
    }
    if (ec != std::errc{} || end != v.data() + v.size()) {
      return std::string("'").append(v).append("' is not ").append(
          std::is_floating_point_v<T> ? "a number" : "an integer");
    }
    *out = x;
    return {};
  }

  template <class T>
  static std::string to_text(T x) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof buf, x).ptr};
  }

  Flags& add(std::string name, bool takes_value,
             std::function<std::string(std::string_view)> set) {
    entries_.push_back(Entry{std::move(name), takes_value, std::move(set)});
    return *this;
  }

  Entry* find(std::string_view name) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        return &e;
      }
    }
    return nullptr;
  }

  bool fail(std::string_view arg, const std::string& what) const {
    std::fprintf(stderr, "%s: %.*s: %s\n", tool_, static_cast<int>(arg.size()),
                 arg.data(), what.c_str());
    return false;
  }

  const char* tool_;
  std::vector<Entry> entries_;
  std::vector<std::string>* positional_ = nullptr;
};

// ---- files ----

/// Read a whole regular file. Returns false on any I/O failure (including
/// `path` being a directory, which an ifstream would read as empty).
inline bool slurp(const std::string& path, std::string* out) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Write `text` to `path` as is. False after printing "<tool>: cannot
/// write PATH".
inline bool write_text(const char* tool, const std::string& path,
                       std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(text.data(), static_cast<std::streamsize>(text.size()))
                   .flush()) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  return true;
}

/// Slurp + parse a JSON document, with "<tool>: ..." diagnostics on
/// stderr. nullopt on failure.
inline std::optional<perf::json::Value> load_json(const char* tool,
                                                  const std::string& path) {
  std::string text;
  if (!slurp(path, &text)) {
    std::fprintf(stderr, "%s: cannot read %s\n", tool, path.c_str());
    return std::nullopt;
  }
  try {
    return perf::json::Value::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", tool, path.c_str(), e.what());
    return std::nullopt;
  }
}

/// Load a tperf dump, with diagnostics. nullopt on failure.
inline std::optional<perf::Dump> load_dump(const char* tool,
                                           const std::string& path) {
  try {
    return perf::load_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return std::nullopt;
  }
}

// ---- value formatting for --metric output ----

inline std::string fmt_f6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

inline std::string fmt_u64(std::uint64_t v) {
  return std::to_string(v);
}

/// `--metric NAME` dispatch table: registration order is the order the
/// usage text lists. Getters are lazy, so registering a metric costs
/// nothing unless it is asked for.
class MetricTable {
 public:
  void add(std::string name, std::function<std::string()> fn) {
    metrics_.emplace_back(std::move(name), std::move(fn));
  }

  /// Print the metric's value (one line) and return 0, or complain on
  /// stderr and return 2 for an unknown name.
  int print(const char* tool, const std::string& name) const {
    for (const auto& [n, fn] : metrics_) {
      if (n == name) {
        std::printf("%s\n", fn().c_str());
        return 0;
      }
    }
    std::fprintf(stderr, "%s: unknown metric %s (have: %s)\n", tool,
                 name.c_str(), names().c_str());
    return 2;
  }

  /// "a | b | c" — for usage strings.
  std::string names() const {
    std::string out;
    for (const auto& [n, fn] : metrics_) {
      (void)fn;
      if (!out.empty()) {
        out += " | ";
      }
      out += n;
    }
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::function<std::string()>>> metrics_;
};

// ---- AF_UNIX ndjson plumbing (tsim server + client, tmon client) ----
//
// The tsim wire protocol is newline-delimited JSON over a Unix stream
// socket; tmon speaks the client side of the same protocol. One
// implementation here so framing rules (including the server's
// oversized-line cap) can't drift between the two binaries.

/// Write all of `data`, absorbing short writes. False on error.
inline bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One compact JSON document + newline — one protocol frame.
inline bool send_json_line(int fd, const perf::json::Value& v) {
  return send_all(fd, v.dump() + "\n");
}

/// Buffered newline-delimited reader over a socket fd. A non-zero
/// `max_line` bounds how long one line may grow; an over-long line makes
/// read_line() fail with oversized() set, and the stream is unusable from
/// then on (the framing cannot resynchronise).
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = 0)
      : fd_{fd}, max_line_{max_line} {}

  /// False on EOF, error, or an oversized line. The returned line
  /// excludes the newline.
  bool read_line(std::string* out) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        if (max_line_ != 0 && nl > max_line_) {
          oversized_ = true;
          return false;
        }
        *out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      if (max_line_ != 0 && buf_.size() > max_line_) {
        oversized_ = true;
        return false;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool oversized() const { return oversized_; }

 private:
  int fd_;
  std::size_t max_line_;
  bool oversized_ = false;
  std::string buf_;
};

inline bool fill_unix_addr(const char* tool, const std::string& path,
                           sockaddr_un* addr) {
  if (path.size() >= sizeof addr->sun_path) {
    std::fprintf(stderr, "%s: socket path too long (%zu bytes, max %zu)\n",
                 tool, path.size(), sizeof addr->sun_path - 1);
    return false;
  }
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Connect to a Unix stream socket; -1 on failure (diagnostic printed
/// unless `quiet`).
inline int connect_unix(const char* tool, const std::string& path,
                        bool quiet = false) {
  sockaddr_un addr;
  if (!fill_unix_addr(tool, path, &addr)) {
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "%s: socket: %s\n", tool, std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (!quiet) {
      std::fprintf(stderr, "%s: cannot connect to %s: %s\n", tool,
                   path.c_str(), std::strerror(errno));
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Bind + listen on a Unix stream socket (clearing a stale socket file
/// first); -1 on failure (diagnostic printed).
inline int listen_unix(const char* tool, const std::string& path) {
  sockaddr_un addr;
  if (!fill_unix_addr(tool, path, &addr)) {
    return -1;
  }
  ::unlink(path.c_str());  // clear a stale socket from a dead server
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "%s: socket: %s\n", tool, std::strerror(errno));
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    std::fprintf(stderr, "%s: cannot bind %s: %s\n", tool, path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    std::fprintf(stderr, "%s: listen: %s\n", tool, std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A client connection: the fd plus its persistent line reader (a reply
/// must never be split across two throw-away readers' buffers). `tool`
/// prefixes the diagnostics of the calls below.
class Conn {
 public:
  Conn(const char* tool, int fd) : tool_{tool}, fd_{fd}, reader_{fd} {}
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  const char* tool() const { return tool_; }
  int fd() const { return fd_; }
  bool read_line(std::string* out) { return reader_.read_line(out); }

 private:
  const char* tool_;
  int fd_;
  LineReader reader_;
};

/// Send one request, read one reply. nullopt on transport failure (a
/// message was already printed).
inline std::optional<perf::json::Value> roundtrip(
    Conn& conn, const perf::json::Value& req) {
  if (!send_json_line(conn.fd(), req)) {
    std::fprintf(stderr, "%s: connection lost while sending\n", conn.tool());
    return std::nullopt;
  }
  std::string line;
  if (!conn.read_line(&line)) {
    std::fprintf(stderr, "%s: connection closed before reply\n", conn.tool());
    return std::nullopt;
  }
  try {
    return perf::json::Value::parse(line);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: malformed reply: %s\n", conn.tool(), e.what());
    return std::nullopt;
  }
}

inline bool reply_ok(const perf::json::Value& reply) {
  const perf::json::Value* ok = reply.find("ok");
  return ok != nullptr && ok->as_bool();
}

/// "<tool>: <code>: <error>" for an "ok": false reply.
inline void print_reply_error(const char* tool,
                              const perf::json::Value& reply) {
  const perf::json::Value* code = reply.find("code");
  const perf::json::Value* err = reply.find("error");
  std::fprintf(stderr, "%s: %s: %s\n", tool,
               code != nullptr && code->is_string() ? code->as_string().c_str()
                                                    : "error",
               err != nullptr && err->is_string() ? err->as_string().c_str()
                                                  : "(no detail)");
}

/// The round trip every client command makes: roundtrip(), with an
/// "ok": false reply printed and turned into nullopt.
inline std::optional<perf::json::Value> call(Conn& conn,
                                             const perf::json::Value& req) {
  std::optional<perf::json::Value> reply = roundtrip(conn, req);
  if (reply && !reply_ok(*reply)) {
    print_reply_error(conn.tool(), *reply);
    return std::nullopt;
  }
  return reply;
}

}  // namespace fpst::tools
