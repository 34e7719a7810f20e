/**
 * @file
 * JSON document object model.
 *
 * A JsonValue is one of: null, boolean, integer, double, string, array,
 * object.  Objects preserve member insertion order so that flattening is
 * deterministic.  JSON's single "number" type is split into integer and
 * double because the storage engine stores 8-byte slots and NoBench's
 * numeric attributes are integral.
 */

#ifndef DVP_JSON_VALUE_HH
#define DVP_JSON_VALUE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace dvp::json
{

class JsonValue;

/** Ordered object members (insertion order preserved). */
using Members = std::vector<std::pair<std::string, JsonValue>>;
/** Array elements. */
using Elements = std::vector<JsonValue>;

/** Discriminator for JsonValue::type(). */
enum class Type { Null, Bool, Int, Double, String, Array, Object };

/**
 * A JSON value.  Copyable, movable; equality is deep structural equality
 * (with Int/Double distinct even when numerically equal, mirroring the
 * storage engine's typing).
 */
class JsonValue
{
  public:
    JsonValue() : data(std::monostate{}) {}
    JsonValue(std::nullptr_t) : data(std::monostate{}) {}
    JsonValue(bool b) : data(b) {}
    JsonValue(int64_t i) : data(i) {}
    JsonValue(int i) : data(static_cast<int64_t>(i)) {}
    JsonValue(double d) : data(d) {}
    JsonValue(std::string s) : data(std::move(s)) {}
    JsonValue(const char *s) : data(std::string(s)) {}
    JsonValue(Elements a) : data(std::move(a)) {}
    JsonValue(Members o) : data(std::move(o)) {}

    /** Build an empty object (distinct from null). */
    static JsonValue makeObject() { return JsonValue(Members{}); }
    /** Build an empty array. */
    static JsonValue makeArray() { return JsonValue(Elements{}); }

    Type type() const;

    bool isNull() const { return type() == Type::Null; }
    bool isBool() const { return type() == Type::Bool; }
    bool isInt() const { return type() == Type::Int; }
    bool isDouble() const { return type() == Type::Double; }
    bool isString() const { return type() == Type::String; }
    bool isArray() const { return type() == Type::Array; }
    bool isObject() const { return type() == Type::Object; }

    /** Typed accessors; panic on type mismatch (internal misuse). */
    bool asBool() const;
    int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;
    const Elements &asArray() const;
    Elements &asArray();
    const Members &asObject() const;
    Members &asObject();

    /**
     * Append or overwrite an object member.
     * @pre isObject()
     */
    void set(const std::string &key, JsonValue v);

    /**
     * Look up an object member.
     * @return nullptr when missing or when this is not an object.
     */
    const JsonValue *find(const std::string &key) const;

    /** Append an array element. @pre isArray() */
    void push(JsonValue v);

    /**
     * In-place string mutation for hot ingest paths: returns the
     * held string, switching the alternative to String first if
     * needed.  Unlike assigning a fresh JsonValue, re-using a slot
     * that already holds a string keeps its heap allocation.
     */
    std::string &stringSlot()
    {
        if (auto *s = std::get_if<std::string>(&data))
            return *s;
        return data.emplace<std::string>();
    }

    /** Number of members/elements; 0 for scalars. */
    size_t size() const;

    bool operator==(const JsonValue &o) const { return data == o.data; }
    bool operator!=(const JsonValue &o) const { return !(*this == o); }

  private:
    std::variant<std::monostate, bool, int64_t, double, std::string,
                 Elements, Members>
        data;
};

} // namespace dvp::json

#endif // DVP_JSON_VALUE_HH
