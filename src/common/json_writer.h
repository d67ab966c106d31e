/**
 * @file
 * Minimal header-only JSON writer for machine-readable bench output.
 *
 * The experiment harnesses print human-readable tables; CI additionally
 * captures BENCH_*.json artifacts so per-PR perf trajectories can be
 * compared mechanically. This writer covers exactly what those files
 * need — objects, arrays, strings, integers, doubles, booleans — with
 * correct comma placement, string escaping, and non-finite-double
 * handling (emitted as null), and no dependencies beyond the standard
 * library.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("bench").value("serving_curves");
 *   w.key("rows").beginArray();
 *   w.beginObject(); w.key("x").value(1); w.endObject();
 *   w.endArray();
 *   w.endObject();
 *   writeTextFile("BENCH_serving.json", w.str());
 */

#ifndef ROME_COMMON_JSON_WRITER_H
#define ROME_COMMON_JSON_WRITER_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rome
{

class JsonWriter
{
  public:
    JsonWriter() { out_.reserve(4096); }

    JsonWriter&
    beginObject()
    {
        prefix();
        out_ += '{';
        stack_.push_back(State{false});
        return *this;
    }

    JsonWriter&
    endObject()
    {
        stack_.pop_back();
        out_ += '}';
        return *this;
    }

    JsonWriter&
    beginArray()
    {
        prefix();
        out_ += '[';
        stack_.push_back(State{false});
        return *this;
    }

    JsonWriter&
    endArray()
    {
        stack_.pop_back();
        out_ += ']';
        return *this;
    }

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter&
    key(const std::string& k)
    {
        prefix();
        appendEscaped(k);
        out_ += ':';
        pendingKey_ = true;
        return *this;
    }

    JsonWriter&
    value(const std::string& v)
    {
        prefix();
        appendEscaped(v);
        return *this;
    }

    JsonWriter& value(const char* v) { return value(std::string(v)); }

    JsonWriter&
    value(double v)
    {
        prefix();
        if (!std::isfinite(v)) {
            out_ += "null";
            return *this;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        out_ += buf;
        return *this;
    }

    JsonWriter&
    value(std::uint64_t v)
    {
        prefix();
        out_ += std::to_string(v);
        return *this;
    }

    JsonWriter&
    value(std::int64_t v)
    {
        prefix();
        out_ += std::to_string(v);
        return *this;
    }

    JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

    JsonWriter&
    value(bool v)
    {
        prefix();
        out_ += v ? "true" : "false";
        return *this;
    }

    const std::string& str() const { return out_; }

  private:
    struct State
    {
        bool hasElement;
    };

    void
    prefix()
    {
        if (pendingKey_) {
            // The element after a key carries no comma of its own.
            pendingKey_ = false;
            return;
        }
        if (!stack_.empty()) {
            if (stack_.back().hasElement)
                out_ += ',';
            stack_.back().hasElement = true;
        }
    }

    void
    appendEscaped(const std::string& s)
    {
        out_ += '"';
        for (const char c : s) {
            switch (c) {
              case '"': out_ += "\\\""; break;
              case '\\': out_ += "\\\\"; break;
              case '\n': out_ += "\\n"; break;
              case '\r': out_ += "\\r"; break;
              case '\t': out_ += "\\t"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out_ += buf;
                } else {
                    out_ += c;
                }
            }
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<State> stack_;
    bool pendingKey_ = false;
};

/** Write @p content to @p path; returns false (and warns) on failure. */
inline bool
writeTextFile(const std::string& path, const std::string& content)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return false;
    }
    bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
              content.size();
    ok = std::fputc('\n', f) != EOF && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
    return ok;
}

} // namespace rome

#endif // ROME_COMMON_JSON_WRITER_H
