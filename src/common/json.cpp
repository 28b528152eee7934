#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace gshe::json {

// ---- Value accessors --------------------------------------------------------

bool Value::as_bool(bool fallback) const {
    return is_bool() ? bool_ : fallback;
}

double Value::as_double(double fallback) const {
    if (!is_number()) return fallback;
    return std::strtod(scalar_.c_str(), nullptr);
}

namespace {

/// The number token as an exact T, or nullopt when it has a fraction or an
/// exponent or lies outside T's range (a sign, for unsigned T).
template <class T>
std::optional<T> exact_integer(const std::string& token) {
    T out{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return out;
}

}  // namespace

std::uint64_t Value::as_u64(std::uint64_t fallback) const {
    if (!is_number()) return fallback;
    return exact_integer<std::uint64_t>(scalar_).value_or(fallback);
}

std::int64_t Value::as_i64(std::int64_t fallback) const {
    if (!is_number()) return fallback;
    return exact_integer<std::int64_t>(scalar_).value_or(fallback);
}

bool Value::is_u64() const {
    return is_number() && exact_integer<std::uint64_t>(scalar_).has_value();
}

bool Value::is_i64() const {
    return is_number() && exact_integer<std::int64_t>(scalar_).has_value();
}

const std::string& Value::as_string() const {
    static const std::string empty;
    return is_string() ? scalar_ : empty;
}

const Value* Value::find(const std::string& key) const {
    for (const auto& [k, v] : members_)
        if (k == key) return &v;
    return nullptr;
}

// ---- Parser -----------------------------------------------------------------

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Value> run() {
        Value v;
        if (!parse_value(v)) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool eat(char c) {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    // Malformed input must never be fatal (a corrupt journal line is
    // skipped, not a crash), so recursion is depth-limited: a line of
    // thousands of '[' characters fails the parse instead of overflowing
    // the stack. 64 is far beyond any record this library writes.
    static constexpr int kMaxDepth = 64;

    bool parse_value(Value& out) {
        if (depth_ >= kMaxDepth) return false;
        skip_ws();
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
            case '{': return parse_object(out);
            case '[': return parse_array(out);
            case '"': {
                out.type_ = Value::Type::String;
                return parse_string(out.scalar_);
            }
            case 't':
                out.type_ = Value::Type::Bool;
                out.bool_ = true;
                return literal("true");
            case 'f':
                out.type_ = Value::Type::Bool;
                out.bool_ = false;
                return literal("false");
            case 'n':
                out.type_ = Value::Type::Null;
                return literal("null");
            default: return parse_number(out);
        }
    }

    bool parse_object(Value& out) {
        out.type_ = Value::Type::Object;
        ++pos_;  // '{'
        ++depth_;
        skip_ws();
        if (eat('}')) {
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !parse_string(key))
                return false;
            skip_ws();
            if (!eat(':')) return false;
            Value member;
            if (!parse_value(member)) return false;
            out.members_.emplace_back(std::move(key), std::move(member));
            skip_ws();
            if (eat('}')) {
                --depth_;
                return true;
            }
            if (!eat(',')) return false;
        }
    }

    bool parse_array(Value& out) {
        out.type_ = Value::Type::Array;
        ++pos_;  // '['
        ++depth_;
        skip_ws();
        if (eat(']')) {
            --depth_;
            return true;
        }
        while (true) {
            Value item;
            if (!parse_value(item)) return false;
            out.items_.push_back(std::move(item));
            skip_ws();
            if (eat(']')) {
                --depth_;
                return true;
            }
            if (!eat(',')) return false;
        }
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening '"'
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) return false;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) return false;
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9') cp |= h - '0';
                        else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                        else return false;
                    }
                    // UTF-8 encode the basic-plane code point (surrogate
                    // pairs are not produced by our writer; encode them as
                    // individual units rather than failing).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default: return false;
            }
        }
        return false;  // unterminated
    }

    bool parse_number(Value& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        const std::size_t digits = pos_;
        while (pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == digits) return false;  // no integer part
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            const std::size_t frac = pos_;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            if (pos_ == frac) return false;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            const std::size_t exp = pos_;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            if (pos_ == exp) return false;
        }
        out.type_ = Value::Type::Number;
        out.scalar_.assign(text_.substr(start, pos_ - start));
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

std::optional<Value> parse(std::string_view text) {
    return Parser(text).run();
}

}  // namespace gshe::json
