#include "ipxact/xml.hpp"

#include <cctype>

#include "common/check.hpp"

namespace axihc {

void XmlNode::set_attribute(const std::string& key, std::string value) {
  for (auto& [k, v] : attributes_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(key, std::move(value));
}

const std::string* XmlNode::attribute(const std::string& key) const {
  for (const auto& [k, v] : attributes_) {
    if (k == key) return &v;
  }
  return nullptr;
}

XmlNode& XmlNode::add_child(std::string tag) {
  children_.push_back(std::make_unique<XmlNode>(std::move(tag)));
  return *children_.back();
}

XmlNode& XmlNode::add_text_child(std::string tag, std::string text) {
  XmlNode& child = add_child(std::move(tag));
  child.set_text(std::move(text));
  return child;
}

const XmlNode* XmlNode::child(const std::string& tag) const {
  for (const auto& c : children_) {
    if (c->tag() == tag) return c.get();
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(
    const std::string& tag) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children_) {
    if (c->tag() == tag) out.push_back(c.get());
  }
  return out;
}

std::string XmlNode::child_text(const std::string& tag) const {
  const XmlNode* c = child(tag);
  return c ? c->text() : std::string{};
}

std::string xml_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {
std::string xml_unescape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      out += raw[i++];
      continue;
    }
    const auto semi = raw.find(';', i);
    AXIHC_CHECK_MSG(semi != std::string::npos, "unterminated XML entity");
    const std::string entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else {
      AXIHC_CHECK_MSG(false, "unknown XML entity &" << entity << ";");
    }
    i = semi + 1;
  }
  return out;
}
}  // namespace

void XmlNode::write(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out += pad + "<" + tag_;
  for (const auto& [k, v] : attributes_) {
    out += " " + k + "=\"" + xml_escape(v) + "\"";
  }
  if (children_.empty() && text_.empty()) {
    out += "/>\n";
    return;
  }
  out += ">";
  if (children_.empty()) {
    out += xml_escape(text_) + "</" + tag_ + ">\n";
    return;
  }
  out += "\n";
  for (const auto& c : children_) c->write(out, indent + 1);
  out += pad + "</" + tag_ + ">\n";
}

std::string XmlNode::to_string() const {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  write(out, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& input) : in_(input) {}

  std::unique_ptr<XmlNode> parse_document() {
    skip_misc();
    auto root = parse_element();
    skip_ws();
    AXIHC_CHECK_MSG(pos_ == in_.size(), "trailing content after XML root");
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  /// Skips whitespace, the XML declaration, and comments.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (in_.compare(pos_, 2, "<?") == 0) {
        const auto end = in_.find("?>", pos_);
        AXIHC_CHECK_MSG(end != std::string::npos, "unterminated <? ... ?>");
        pos_ = end + 2;
      } else if (in_.compare(pos_, 4, "<!--") == 0) {
        const auto end = in_.find("-->", pos_);
        AXIHC_CHECK_MSG(end != std::string::npos, "unterminated comment");
        pos_ = end + 3;
      } else {
        return;
      }
    }
  }

  [[nodiscard]] bool is_name_char(char c) const {
    return std::isalnum(static_cast<unsigned char>(c)) || c == ':' ||
           c == '_' || c == '-' || c == '.';
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < in_.size() && is_name_char(in_[pos_])) ++pos_;
    AXIHC_CHECK_MSG(pos_ > start, "expected XML name at offset " << start);
    return in_.substr(start, pos_ - start);
  }

  std::unique_ptr<XmlNode> parse_element() {
    AXIHC_CHECK_MSG(pos_ < in_.size() && in_[pos_] == '<',
                    "expected '<' at offset " << pos_);
    ++pos_;
    auto node = std::make_unique<XmlNode>(parse_name());

    // Attributes.
    for (;;) {
      skip_ws();
      AXIHC_CHECK_MSG(pos_ < in_.size(), "unexpected end inside tag");
      if (in_[pos_] == '/') {
        AXIHC_CHECK_MSG(in_.compare(pos_, 2, "/>") == 0, "malformed tag end");
        pos_ += 2;
        return node;
      }
      if (in_[pos_] == '>') {
        ++pos_;
        break;
      }
      const std::string key = parse_name();
      skip_ws();
      AXIHC_CHECK_MSG(pos_ < in_.size() && in_[pos_] == '=',
                      "expected '=' after attribute " << key);
      ++pos_;
      skip_ws();
      AXIHC_CHECK_MSG(pos_ < in_.size() && in_[pos_] == '"',
                      "expected '\"' in attribute " << key);
      ++pos_;
      const auto end = in_.find('"', pos_);
      AXIHC_CHECK_MSG(end != std::string::npos, "unterminated attribute");
      node->set_attribute(key, xml_unescape(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;
    }

    // Content: children and/or text until the closing tag.
    std::string text;
    for (;;) {
      AXIHC_CHECK_MSG(pos_ < in_.size(), "unexpected end inside element <"
                                             << node->tag() << ">");
      if (in_[pos_] == '<') {
        if (in_.compare(pos_, 2, "</") == 0) {
          pos_ += 2;
          const std::string closing = parse_name();
          AXIHC_CHECK_MSG(closing == node->tag(),
                          "mismatched closing tag </"
                              << closing << "> for <" << node->tag() << ">");
          skip_ws();
          AXIHC_CHECK_MSG(pos_ < in_.size() && in_[pos_] == '>',
                          "malformed closing tag");
          ++pos_;
          break;
        }
        if (in_.compare(pos_, 4, "<!--") == 0) {
          const auto end = in_.find("-->", pos_);
          AXIHC_CHECK_MSG(end != std::string::npos, "unterminated comment");
          pos_ = end + 3;
          continue;
        }
        // Child element: preserved via recursion; interleaved text between
        // children is not meaningful in IP-XACT and is discarded.
        auto parsed = parse_element();
        XmlNode& slot = node->add_child(parsed->tag());
        slot = std::move(*parsed);
      } else {
        const auto lt = in_.find('<', pos_);
        AXIHC_CHECK_MSG(lt != std::string::npos,
                        "unterminated element <" << node->tag() << ">");
        text += in_.substr(pos_, lt - pos_);
        pos_ = lt;
      }
    }

    // Trim and store text content only for leaf elements.
    if (node->children().empty()) {
      std::size_t b = 0;
      std::size_t e = text.size();
      while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
      while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
      node->set_text(xml_unescape(text.substr(b, e - b)));
    }
    return node;
  }

  const std::string& in_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<XmlNode> parse_xml(const std::string& input) {
  return Parser(input).parse_document();
}

}  // namespace axihc
